package core

import (
	"fmt"
	"sort"

	"megamimo/internal/air"
	"megamimo/internal/cmplxs"
	"megamimo/internal/radio"
	"megamimo/internal/rng"
	psync "megamimo/internal/sync"
)

// This file is the network's checkpoint surface: Snapshot captures every
// piece of state that evolves after construction + Measure + Precode, and
// RestoreSnapshot overwrites a freshly rebuilt network with it. Everything
// NOT captured here — links, the measurement, precoder weights, the
// ZFCache, PHY scratch — is a deterministic function of (config, seed,
// measurement) and is recreated bit-identically by replaying the build
// path; DESIGN.md §14 documents the split.

// SyncPeerState is one AP's synchronization state toward one potential
// lead, addressed by (AP, Toward). Peer is sync's flat all-exported state
// with its complex reference channel lifted out into Ref (Peer.Ref
// is always nil here), so the whole entry encodes as JSON; Ref is
// deep-copied on capture and restore.
type SyncPeerState struct {
	AP     int                `json:"ap"`
	Toward int                `json:"toward"`
	Ref    cmplxs.Interleaved `json:"ref,omitempty"`
	Peer   psync.Peer         `json:"peer"`
}

// NetworkState is the mutable post-build state of a Network. Its json
// tags are the checkpoint format's wire names. The bus is captured
// separately by the checkpoint layer (its in-flight payloads need
// type-aware encoding the core cannot do), as is the metrics registry.
type NetworkState struct {
	Now      int64     `json:"now"`
	Rng      rng.State `json:"rng"`
	Crashed  []bool    `json:"crashed"`
	SyncLoss []int64   `json:"sync_loss"`
	Abstain  []bool    `json:"abstain"`
	IsLead   []bool    `json:"is_lead"`
	// Oscs holds every node oscillator in node order: APs 0..N−1, then
	// clients 0..M−1. Oscillator PPM is mutable state here because drift
	// drills inject it mid-run.
	Oscs   []radio.OscState `json:"oscs"`
	Tracer TracerState      `json:"tracer"`
	Peers  []SyncPeerState  `json:"peers,omitempty"`
	Air    air.State        `json:"air"`
}

// Snapshot captures the network's mutable state. It fails when a trace
// span is still open (mid-round); checkpoint at round boundaries only.
func (n *Network) Snapshot() (*NetworkState, error) {
	tr, err := n.tracer.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &NetworkState{
		Now:      n.now,
		Rng:      n.rng.State(),
		Crashed:  append([]bool(nil), n.crashed...),
		SyncLoss: append([]int64(nil), n.syncLossUntil...),
		Abstain:  append([]bool(nil), n.abstain...),
		IsLead:   make([]bool, len(n.APs)),
		Oscs:     make([]radio.OscState, 0, len(n.APs)+len(n.Clients)),
		Tracer:   tr,
		Air:      n.Air.Snapshot(),
	}
	for i, ap := range n.APs {
		st.IsLead[i] = ap.IsLead
		st.Oscs = append(st.Oscs, ap.Node.Osc.Snapshot())
	}
	for _, c := range n.Clients {
		st.Oscs = append(st.Oscs, c.Node.Osc.Snapshot())
	}
	for i, ap := range n.APs {
		towards := make([]int, 0, len(ap.syncs))
		for toward := range ap.syncs {
			towards = append(towards, toward)
		}
		sort.Ints(towards)
		for _, toward := range towards {
			p := *ap.syncs[toward]
			ref := append(cmplxs.Interleaved(nil), p.Ref...)
			p.Ref = nil
			st.Peers = append(st.Peers, SyncPeerState{AP: i, Toward: toward, Ref: ref, Peer: p})
		}
	}
	return st, nil
}

// RestoreSnapshot overwrites a rebuilt network's mutable state with st.
// The network must have been rebuilt along the same path the checkpointed
// run took (same config, seed, Measure, Precode), so that everything not
// in the snapshot already matches; callers enforce that with the config
// digest in the checkpoint header. Metrics and the bus are restored by the
// checkpoint layer afterwards.
func (n *Network) RestoreSnapshot(st *NetworkState) error {
	if len(st.Crashed) != len(n.APs) || len(st.IsLead) != len(n.APs) ||
		len(st.SyncLoss) != len(n.APs) || len(st.Abstain) != len(n.APs) {
		return fmt.Errorf("core: restore: snapshot has %d APs, network has %d", len(st.Crashed), len(n.APs))
	}
	if want := len(n.APs) + len(n.Clients); len(st.Oscs) != want {
		return fmt.Errorf("core: restore: snapshot has %d oscillators, network has %d nodes", len(st.Oscs), want)
	}
	if err := n.rng.Restore(st.Rng); err != nil {
		return fmt.Errorf("core: restore network rng: %w", err)
	}
	n.now = st.Now
	copy(n.syncLossUntil, st.SyncLoss)
	copy(n.abstain, st.Abstain)
	// Crash state replays through the bus attachment so a crashed AP stays
	// detached; the drop counters this bumps are overwritten when the
	// metrics registry restores afterwards.
	for i, down := range st.Crashed {
		if down == n.crashed[i] {
			continue
		}
		n.crashed[i] = down
		if down {
			n.Bus.Detach(i)
		} else {
			n.Bus.Attach(i)
		}
	}
	for i, ap := range n.APs {
		ap.IsLead = st.IsLead[i]
		if err := ap.Node.Osc.RestoreSnapshot(st.Oscs[i]); err != nil {
			return fmt.Errorf("core: restore AP %d oscillator: %w", i, err)
		}
	}
	for i, c := range n.Clients {
		if err := c.Node.Osc.RestoreSnapshot(st.Oscs[len(n.APs)+i]); err != nil {
			return fmt.Errorf("core: restore client %d oscillator: %w", i, err)
		}
	}
	for _, ap := range n.APs {
		ap.syncs = nil
	}
	for _, ps := range st.Peers {
		if ps.AP < 0 || ps.AP >= len(n.APs) {
			return fmt.Errorf("core: restore: sync peer for AP %d, network has %d", ps.AP, len(n.APs))
		}
		p := n.APs[ps.AP].syncTo(ps.Toward)
		*p = ps.Peer
		p.Ref = append([]complex128(nil), ps.Ref...)
	}
	n.tracer.RestoreSnapshot(st.Tracer)
	if err := n.Air.RestoreSnapshot(st.Air, n.OscForAntenna); err != nil {
		return fmt.Errorf("core: restore medium: %w", err)
	}
	return nil
}

// OscForAntenna maps a transmit antenna ID back to its owning AP's
// oscillator (nil when the ID is not an AP antenna: clients never
// transmit). The medium restore path uses it to re-bind in-flight
// emissions.
func (n *Network) OscForAntenna(tx int) *radio.Oscillator {
	if tx < 0 {
		return nil
	}
	ap := tx / n.Cfg.AntennasPerAP
	if ap < len(n.APs) {
		return n.APs[ap].Node.Osc
	}
	return nil
}
