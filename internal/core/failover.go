package core

import (
	"fmt"

	"megamimo/internal/matrix"
)

// This file holds the graceful-degradation machinery: AP crash/restart
// state, deterministic lead re-election, injected sync-header corruption,
// and the N−1 zero-forcing rebuild used when a subset of APs participates
// in a joint transmission (crash or sync-abstain). The fault package
// drives these through its Injector; handover_test proves nulls survive a
// planned lead change, and this path extends that to unplanned ones.

// APLive reports whether AP i exists and has not crashed.
func (n *Network) APLive(i int) bool {
	return i >= 0 && i < len(n.crashed) && !n.crashed[i]
}

// LiveAPs counts the APs currently on the air.
func (n *Network) LiveAPs() int {
	live := 0
	for _, down := range n.crashed {
		if !down {
			live++
		}
	}
	return live
}

// ElectLead returns preferred when it names a live AP and otherwise the
// lowest live index — the deterministic re-election order (every AP can
// compute it locally from the shared crash view, so no extra backend
// round-trip is modeled).
func (n *Network) ElectLead(preferred int) int {
	if preferred >= 0 && preferred < len(n.APs) && !n.crashed[preferred] {
		return preferred
	}
	for i := range n.APs {
		if !n.crashed[i] {
			return i
		}
	}
	return 0
}

// CrashAP takes an AP off the air and off the bus. Its pending backend
// messages are purged (and counted as backend drops), and if it was the
// lead, the lowest live index takes over immediately — re-election within
// the same round, counted by lead_failovers_total. Crashing the last live
// AP is refused: the simulation has no one left to model.
func (n *Network) CrashAP(i int) error {
	if i < 0 || i >= len(n.APs) {
		return fmt.Errorf("core: CrashAP(%d): no such AP (have %d)", i, len(n.APs))
	}
	if n.crashed[i] {
		return fmt.Errorf("core: CrashAP(%d): already crashed", i)
	}
	if n.LiveAPs() == 1 {
		return fmt.Errorf("core: CrashAP(%d): refusing to crash the last live AP", i)
	}
	wasLead := n.APs[i].IsLead
	n.crashed[i] = true
	n.APs[i].IsLead = false
	n.Bus.Detach(i)
	n.trace(n.now, KindFault, TraceAttrs{AP: i, Cause: "ap-crash"}, "AP %d crashed", i)
	if wasLead {
		next := n.ElectLead(-1)
		n.APs[next].IsLead = true
		n.mLeadFailovers.Inc()
		n.trace(n.now, KindRecovery, TraceAttrs{AP: next, Cause: "lead-failover"},
			"lead AP %d crashed; AP %d took over", i, next)
	}
	return nil
}

// RestartAP brings a crashed AP back: re-attached to the bus, eligible to
// lead and to join transmissions again. Its sync state survives from
// before the crash, so its first rounds ride the staleness budget (or
// abstain) until a fresh measurement.
func (n *Network) RestartAP(i int) error {
	if i < 0 || i >= len(n.APs) {
		return fmt.Errorf("core: RestartAP(%d): no such AP (have %d)", i, len(n.APs))
	}
	if !n.crashed[i] {
		return fmt.Errorf("core: RestartAP(%d): not crashed", i)
	}
	n.crashed[i] = false
	n.Bus.Attach(i)
	n.trace(n.now, KindRecovery, TraceAttrs{AP: i, Cause: "ap-restart"}, "AP %d restarted", i)
	return nil
}

// CorruptSync makes AP i's sync-header measurements fail until the given
// ether time, exercising the extrapolate-then-abstain path without
// touching the medium.
func (n *Network) CorruptSync(i int, until int64) error {
	if i < 0 || i >= len(n.APs) {
		return fmt.Errorf("core: CorruptSync(%d): no such AP (have %d)", i, len(n.APs))
	}
	if until > n.syncLossUntil[i] {
		n.syncLossUntil[i] = until
	}
	n.trace(n.now, KindFault, TraceAttrs{AP: i, Cause: "sync-corrupt"},
		"AP %d sync headers corrupted until t=%d", i, until)
	return nil
}

// maskedWeights is one N−1 zero-forcing rebuild: per-antenna gain columns
// recomputed over a subset of APs. gain[globalAnt][stream] is nil when the
// antenna sits on a non-participating AP or the stream was shed.
type maskedWeights struct {
	gain   [][][]complex128
	served int
}

// participationMask returns the bitmask of APs joining the current round
// (live and not abstaining) and the full-strength mask for comparison.
func (n *Network) participationMask() (mask, full uint64) {
	for i := range n.APs {
		full |= 1 << uint(i)
		if !n.crashed[i] && !n.abstain[i] {
			mask |= 1 << uint(i)
		}
	}
	return mask, full
}

// weightsForMask returns (building and caching if needed) the degraded
// precoder for a participation mask: the lead re-zero-forces over the
// surviving AP antennas only. When the survivors have fewer antennas than
// streams, the highest stream indices are shed — those clients miss this
// round and the MAC retransmits — so the remaining clients keep their
// nulls instead of every client losing them. The rebuilds live in the
// network's ZFCache keyed by mask, so when the same degradation recurs
// after a re-measurement the per-bin inverses update incrementally
// (Sherman–Morrison) instead of re-inverting from scratch.
func (n *Network) weightsForMask(mask uint64) (*maskedWeights, error) {
	if n.Msmt == nil {
		return nil, fmt.Errorf("core: no measurement to rebuild a degraded precoder from")
	}
	if e := n.zf.entries[mask]; e != nil && e.src == n.Msmt && e.mw != nil {
		return e.mw, nil
	}
	aa := n.Cfg.AntennasPerAP
	ants := make([]int, 0, n.NumTxAntennas())
	for i := range n.APs {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for m := 0; m < aa; m++ {
			ants = append(ants, i*aa+m)
		}
	}
	if len(ants) == 0 {
		return nil, fmt.Errorf("core: no participating AP antennas in mask %#x", mask)
	}
	streams := n.NumStreams()
	served := streams
	if len(ants) < served {
		served = len(ants)
	}
	sub := &Measurement{
		At:       n.Msmt.At,
		RefMid:   n.Msmt.RefMid,
		Bins:     n.Msmt.Bins,
		NoiseVar: n.Msmt.NoiseVar,
		H:        make([]*matrix.M, len(n.Msmt.H)),
	}
	for b, hm := range n.Msmt.H {
		h := matrix.New(served, len(ants))
		for r := 0; r < served; r++ {
			for c, g := range ants {
				h.Set(r, c, hm.At(r, g))
			}
		}
		sub.H[b] = h
	}
	e, err := n.zf.entry(mask, sub, 0)
	if err != nil {
		return nil, fmt.Errorf("core: degraded precoder for mask %#x: %w", mask, err)
	}
	p := e.pre
	mw := &maskedWeights{served: served, gain: make([][][]complex128, n.NumTxAntennas())}
	for c, g := range ants {
		mw.gain[g] = make([][]complex128, streams)
		for j := 0; j < served; j++ {
			mw.gain[g][j] = p.gainColumnInto(nil, c, j)
		}
	}
	e.mw = mw
	e.src = n.Msmt
	return mw, nil
}
