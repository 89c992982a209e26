package baseline

import (
	"bytes"
	"runtime"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func measuredNet(t *testing.T, nAPs, nClients int, seed int64, lo, hi units.Decibels) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(nAPs, nClients, lo, hi)
	cfg.Seed = seed
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSelectRatePlausible(t *testing.T) {
	n := measuredNet(t, 3, 3, 60, 20, 25)
	u := New(n)
	for s := 0; s < 3; s++ {
		mcs, ap, ok, err := u.SelectRate(s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stream %d: no rate at 20-25 dB", s)
		}
		if mcs < 3 {
			t.Fatalf("stream %d: rate %v too low for 20-25 dB", s, mcs)
		}
		if ap < 0 || ap >= 3 {
			t.Fatalf("bad AP %d", ap)
		}
	}
}

func TestUnicastTransmitDelivers(t *testing.T) {
	n := measuredNet(t, 2, 2, 61, 20, 25)
	u := New(n)
	src := rng.New(9)
	payload := src.Bytes(make([]byte, 800))
	mcs, ap, ok, err := u.SelectRate(0)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}
	frame, airtime, err := u.Transmit(0, ap, payload, mcs)
	if err != nil {
		t.Fatal(err)
	}
	if airtime <= 0 {
		t.Fatal("no airtime")
	}
	if frame == nil || !frame.FCSOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatal("unicast frame not delivered at selected rate")
	}
}

// TestUnicastTransmitAllocBudget gates the steady-state 802.11 baseline
// packet. The Unicast borrows its waveform and receive window from the
// recycler, so a transmission allocates only the decoded frame and its
// retained fields: ~60 allocations and ~6 KB for a 1500-byte packet,
// where a fresh waveform, window and per-symbol frame bins cost ~210
// allocations and ~565 KB. The budgets sit well above the retained results and far below
// one stream-length buffer.
func TestUnicastTransmitAllocBudget(t *testing.T) {
	n := measuredNet(t, 2, 2, 61, 20, 25)
	u := New(n)
	payload := rng.New(11).Bytes(make([]byte, 1500))
	mcs, ap, ok, err := u.SelectRate(0)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}
	send := func() {
		frame, _, err := u.Transmit(0, ap, payload, mcs)
		if err != nil || frame == nil || !frame.FCSOK {
			t.Fatalf("unicast packet lost: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		send() // warm the recycler
	}
	allocs := testing.AllocsPerRun(10, send)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Unicast.Transmit: %.0f allocs, %.1f KB per 1500-byte packet", allocs, bytes/1e3)
	const budget, byteBudget = 150, 50e3
	if allocs > budget {
		t.Errorf("Unicast.Transmit allocates %.0f objects per packet, budget is %d", allocs, budget)
	}
	if bytes > byteBudget {
		t.Errorf("Unicast.Transmit allocates %.1f KB per packet, budget is %.0f KB; "+
			"a waveform or receive window is being allocated per packet", bytes/1e3, byteBudget/1e3)
	}
}

func TestUnicastRateMatchesDelivery(t *testing.T) {
	// The selected unicast rate must actually deliver over the signal
	// path — the baseline and rate table must agree end to end.
	n := measuredNet(t, 2, 2, 62, 12, 16)
	u := New(n)
	src := rng.New(10)
	okCount, trials := 0, 6
	mcs, ap, ok, err := u.SelectRate(1)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}
	for i := 0; i < trials; i++ {
		frame, _, err := u.Transmit(1, ap, src.Bytes(make([]byte, 600)), mcs)
		if err != nil {
			t.Fatal(err)
		}
		if frame != nil && frame.FCSOK {
			okCount++
		}
	}
	if okCount < trials-2 {
		t.Fatalf("selected rate %v delivered only %d/%d", mcs, okCount, trials)
	}
}

func TestEqualShareThroughput(t *testing.T) {
	n := measuredNet(t, 4, 4, 63, 20, 25)
	u := New(n)
	total, per, err := u.EqualShareThroughput(1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("%d per-stream entries", len(per))
	}
	var sum float64
	for _, p := range per {
		sum += p
	}
	if total != sum {
		t.Fatal("total != Σ per-stream")
	}
	// At 20-25 dB on 10 MHz the 802.11 total should sit near the paper's
	// high-SNR anchor (23.6 Mb/s): each stream runs MCS6-7 but only gets a
	// quarter of the medium, so the sum ≈ one full-rate link.
	if total < 15e6 || total > 30e6 {
		t.Fatalf("802.11 total %v Mb/s implausible", total/1e6)
	}
}

func TestEqualShareDeadSpotContributesZero(t *testing.T) {
	n := measuredNet(t, 2, 2, 64, -8, -6)
	u := New(n)
	total, _, err := u.EqualShareThroughput(1500)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("dead-spot network yields %v bps", total)
	}
}

func TestSingleAPMIMOSubBlock(t *testing.T) {
	cfg := core.DefaultConfig(2, 2, 20, 24)
	cfg.AntennasPerAP = 2
	cfg.AntennasPerClient = 2
	cfg.SampleRate = 20e6
	cfg.Seed = 65
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	s := &SingleAPMIMO{Net: n}
	blocks, err := s.SubBlock(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0].Rows != 2 || blocks[0].Cols != 2 {
		t.Fatalf("sub-block %dx%d", blocks[0].Rows, blocks[0].Cols)
	}
	// Sub-block must match the full matrix entries.
	full := n.Msmt.H[7]
	if blocks[7].At(1, 0) != full.At(3, 2) {
		t.Fatal("sub-block extraction misindexed")
	}
	tput, per, err := s.Throughput(1500)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 || len(per) != 2 {
		t.Fatalf("throughput %v per %v", tput, per)
	}
}
