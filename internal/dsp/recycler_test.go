package dsp_test

import (
	"bytes"
	"fmt"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/dsp"
	"megamimo/internal/fault"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
)

// Every borrower of recycled scratch clears or fully overwrites it before
// reading. These tests run whole simulations twice, the second time with
// every recycled buffer filled with NaN, and require identical results and
// trace bytes: a borrower that read stale scratch would change them.

// samePoisoned runs sim with plain and with poisoned recycling and fails
// the test when the two records differ.
func samePoisoned(t *testing.T, sim func(t *testing.T, w *bytes.Buffer)) {
	t.Helper()
	if testing.Short() {
		t.Skip("full simulation")
	}
	var plain, poisoned bytes.Buffer
	sim(t, &plain)
	dsp.PoisonRecycler(true)
	defer dsp.PoisonRecycler(false)
	sim(t, &poisoned)
	if !bytes.Equal(plain.Bytes(), poisoned.Bytes()) {
		t.Fatalf("poisoned recycling changed the run: %d bytes of record plain, %d poisoned, first difference at byte %d",
			plain.Len(), poisoned.Len(), firstDiff(plain.Bytes(), poisoned.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// tracedNetwork builds an aps×aps network with its flight recorder on.
func tracedNetwork(t *testing.T, aps int, seed int64) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(aps, aps, 18, 24)
	cfg.Seed = seed
	cfg.WellConditioned = true
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Trace().Enable(1 << 16)
	return n
}

// writeTrace appends the network's trace as JSONL.
func writeTrace(t *testing.T, w *bytes.Buffer, n *core.Network) {
	t.Helper()
	meta := tracefmt.Meta{SampleRate: n.Cfg.SampleRate, CarrierHz: n.Cfg.CarrierHz, APs: len(n.APs), Clients: len(n.Clients)}
	if err := tracefmt.WriteJSONL(w, meta, n.Trace().Events()); err != nil {
		t.Fatal(err)
	}
}

func writeFrame(w *bytes.Buffer, f *phy.RxFrame) {
	if f == nil {
		fmt.Fprintln(w, "lost")
		return
	}
	fmt.Fprintln(w, f.Payload, f.MCS, f.FCSOK, f.SNRdB, f.EVM, f.ResidualCFO, f.SubcarrierSNR, f.Channel, *f.Sync, f.CommonPhases)
}

func TestPoisonedRecyclerJointTransmit(t *testing.T) {
	samePoisoned(t, func(t *testing.T, w *bytes.Buffer) {
		n := tracedNetwork(t, 10, 3)
		if _, err := n.MeasureAndPrecode(); err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		for _, mcs := range []phy.MCS{phy.MCS7, phy.MCS3, phy.MCS7} {
			payloads := make([][]byte, n.NumStreams())
			for j := range payloads {
				payloads[j] = src.Bytes(make([]byte, 1500))
			}
			res, err := n.JointTransmit(payloads, mcs)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(w, res.OK, res.AirtimeSamples)
			for _, f := range res.Frames {
				writeFrame(w, f)
			}
		}
		writeTrace(t, w, n)
	})
}

func TestPoisonedRecyclerFaultStorm(t *testing.T) {
	samePoisoned(t, func(t *testing.T, w *bytes.Buffer) {
		const seconds = 0.01
		n := tracedNetwork(t, 4, 11)
		n.Cfg.SyncStalenessSamples = 10_000
		if _, err := n.MeasureAndPrecode(); err != nil {
			t.Fatal(err)
		}
		profiles := make([]traffic.Profile, n.NumStreams())
		for i := range profiles {
			profiles[i] = traffic.NewCBR(6e6, 1500)
		}
		eng, err := traffic.New(n, traffic.Config{
			System:   traffic.SystemMegaMIMO,
			Profiles: profiles,
			Seed:     12,
			Faults:   fault.Storm(n, 13, seconds, 300),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(seconds)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%+v\n", *rep)
		writeTrace(t, w, n)
	})
}

func TestPoisonedRecyclerRemeasureRound(t *testing.T) {
	samePoisoned(t, func(t *testing.T, w *bytes.Buffer) {
		n := tracedNetwork(t, 8, 17)
		if _, err := n.MeasureAndPrecode(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for c := range n.Clients {
				n.EvolveClientLinks(c, 0.995)
			}
			if err := n.Measure(); err != nil {
				t.Fatal(err)
			}
			p, err := n.Precode(0)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range n.Msmt.H {
				fmt.Fprintln(w, h.Data, p.W[i].Data)
			}
			fmt.Fprintln(w, n.Msmt.NoiseVar, p.PowerScale)
		}
		writeTrace(t, w, n)
	})
}
