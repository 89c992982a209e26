// Package megamimo's benchmark harness regenerates every figure of the
// paper's evaluation (§11) as a testing.B benchmark, reporting the
// figure's headline quantity as a custom metric. Run with
//
//	go test -bench=. -benchmem
//
// Larger, slower sweeps (the full 20-topology methodology) live in
// cmd/megamimo-bench.
package megamimo

import (
	"math"
	"runtime"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/phy"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// BenchmarkFig6Misalignment regenerates the SNR-reduction-vs-misalignment
// curves and reports the paper's anchor point (0.35 rad at 20 dB ≈ 8 dB).
func BenchmarkFig6Misalignment(b *testing.B) {
	b.ReportAllocs()
	var anchor float64
	for i := 0; i < b.N; i++ {
		r := experiment.RunFig6(100, int64(i)+1)
		for _, p := range r.Points {
			if math.Abs(p.MisalignmentRad-0.35) < 0.026 && p.SNRdB == 20 {
				anchor = p.ReductionDB
			}
		}
	}
	b.ReportMetric(anchor, "dB-loss@0.35rad,20dB")
}

// BenchmarkFig7PhaseSync measures the distributed phase-sync misalignment
// distribution (paper: median 0.017 rad, p95 0.05 rad).
func BenchmarkFig7PhaseSync(b *testing.B) {
	b.ReportAllocs()
	var median, p95 float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig7(2, 20, int64(i)+3)
		if err != nil {
			b.Fatal(err)
		}
		median, p95 = r.MedianRad, r.P95Rad
	}
	b.ReportMetric(median, "median-rad")
	b.ReportMetric(p95, "p95-rad")
}

// BenchmarkFig8INR measures the interference-to-noise ratio at a nulled
// client (paper: ≤1.5 dB at 10 pairs, ≈0.13 dB growth per pair).
func BenchmarkFig8INR(b *testing.B) {
	b.ReportAllocs()
	var inr10, slope float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig8(6, 1, int64(i)+5)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Bin == experiment.HighSNR.Name && p.Receivers == 6 {
				inr10 = units.Ratio(p.INRdB, 1)
			}
		}
		slope = r.SlopePerPair(experiment.HighSNR.Name)
	}
	b.ReportMetric(inr10, "INR-dB@6")
	b.ReportMetric(slope, "dB-per-pair")
}

// BenchmarkFig9Scaling measures total-throughput scaling (paper: linear,
// 8.1–9.4× at 10 APs).
func BenchmarkFig9Scaling(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig9([]int{2, 6}, 2, 2, int64(i)+7)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Bin == experiment.HighSNR.Name && p.APs == 6 {
				gain = p.MegaMIMObps / p.Dot11bps
			}
		}
	}
	b.ReportMetric(gain, "gain-x@6APs")
}

// BenchmarkFig10Fairness measures the spread of per-client gains (paper:
// all clients see roughly the same gain).
func BenchmarkFig10Fairness(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig9([]int{4}, 2, 2, int64(i)+11)
		if err != nil {
			b.Fatal(err)
		}
		f10 := experiment.Fig10From(r)
		g := f10.Gains[experiment.HighSNR.Name][4]
		if len(g) > 1 {
			spread = stats.Percentile(g, 90) - stats.Percentile(g, 10)
		}
	}
	b.ReportMetric(spread, "gain-p90-p10")
}

// BenchmarkFig11Diversity measures coherent-combining throughput at a 0 dB
// client (paper: ≈21 Mb/s with 10 APs where 802.11 delivers nothing).
func BenchmarkFig11Diversity(b *testing.B) {
	b.ReportAllocs()
	var at0 float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig11([]int{8}, 1, int64(i)+13)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.LinkSNRdB == 0 {
				at0 = p.MegaMIMO / 1e6
			}
		}
	}
	b.ReportMetric(at0, "Mbps@0dB-8APs")
}

// BenchmarkFig12Dot11n measures the off-the-shelf 802.11n gain (paper:
// 1.67–1.83× mean).
func BenchmarkFig12Dot11n(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig12(2, 2, int64(i)+17)
		if err != nil {
			b.Fatal(err)
		}
		var acc float64
		for _, p := range r.Points {
			acc += p.MeanGain
		}
		gain = acc / float64(len(r.Points))
	}
	b.ReportMetric(gain, "gain-x")
}

// BenchmarkFig13Dot11nFairness measures the 802.11n gain CDF median
// (paper: 1.8×).
func BenchmarkFig13Dot11nFairness(b *testing.B) {
	b.ReportAllocs()
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunFig12(3, 2, int64(i)+19)
		if err != nil {
			b.Fatal(err)
		}
		f13 := experiment.Fig13From(r)
		if len(f13.Gains) > 0 {
			median = stats.Median(f13.Gains)
		}
	}
	b.ReportMetric(median, "median-gain-x")
}

// BenchmarkJointTransmit4x4 is a plain performance benchmark of the whole
// signal path (measurement excluded): four streams, 1500-byte frames.
func BenchmarkJointTransmit4x4(b *testing.B) {
	cfg := core.DefaultConfig(4, 4, 18, 24)
	cfg.WellConditioned = true
	n, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		b.Fatal(err)
	}
	if _, err := n.Precode(cfg.NoiseVar); err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, 4)
	for j := range payloads {
		payloads[j] = make([]byte, 1500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.JointTransmit(payloads, phy.MCS2); err != nil {
			b.Fatal(err)
		}
	}
}

// precodedNetwork builds a measured aps×aps network with the ZF precoder
// installed, the state every joint transmission starts from.
func precodedNetwork(t *testing.T, aps int) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(aps, aps, 18, 24)
	cfg.WellConditioned = true
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	return n
}

// jointTransmitBytes runs JointTransmit runs times with 1500-byte payloads
// and returns the bytes allocated per transmission.
func jointTransmitBytes(t *testing.T, n *core.Network, mcs phy.MCS, runs int) float64 {
	t.Helper()
	payloads := make([][]byte, n.NumStreams())
	for j := range payloads {
		payloads[j] = make([]byte, 1500)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := n.JointTransmit(payloads, mcs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestJointTransmitAllocBudget is the allocation regression gate for the
// zero-alloc signal path. Before the scratch-arena refactor a 4x4 joint
// transmission cost 253,951 allocations; with borrowed observation
// windows, frames and receive scratch it costs ~300 allocations and ~0.05
// MB, all of them retained results (decoded frames, channel estimates,
// sync corrections). The budgets sit about 2x and 5x above that, so
// incidental churn passes while a per-symbol buffer or a fresh
// stream-length window per frame trips them. The 10x10 row posts enough
// training, header and frame emissions to fill a 64-buffer per-medium
// pool, which then dropped every frame buffer and re-allocated ten frames
// per round (~0.92 MB); it measures ~0.09 MB.
func TestJointTransmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	for _, c := range []struct {
		name       string
		aps        int
		mcs        phy.MCS
		budget     float64 // allocations per transmission
		byteBudget float64
	}{
		{"4x4-MCS2", 4, phy.MCS2, 600, 0.25e6},
		{"10x10-MCS7", 10, phy.MCS7, 1500, 0.4e6},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := precodedNetwork(t, c.aps)
			payloads := make([][]byte, c.aps)
			for j := range payloads {
				payloads[j] = make([]byte, 1500)
			}
			// Warm the medium and the recycler so the measurement sees
			// steady state.
			jointTransmitBytes(t, n, c.mcs, 3)
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := n.JointTransmit(payloads, c.mcs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.budget {
				t.Errorf("JointTransmit allocates %.0f objects per %s transmission, budget is %.0f; "+
					"a hot-path buffer is being reallocated per symbol or per frame", allocs, c.name, c.budget)
			}
			// The count alone misses a few large buffers sized by the
			// stream, so the bytes are gated too.
			bytes := jointTransmitBytes(t, n, c.mcs, 5)
			t.Logf("JointTransmit: %.0f allocs, %.2f MB per %s transmission", allocs, bytes/1e6, c.name)
			if bytes > c.byteBudget {
				t.Errorf("JointTransmit allocates %.2f MB per %s transmission, budget is %.2f MB; "+
					"a buffer the length of the received stream is being allocated per frame", bytes/1e6, c.name, c.byteBudget/1e6)
			}
		})
	}
}

// TestNewTopologyStartsWarm: a fresh 10x10 network built after an
// identical one has run finds its emission, frame and receive buffers in
// the recycler, so its first JointTransmit allocates little more than a
// steady-state round (~0.12 MB against ~0.09 MB). With per-network
// scratch that first round re-grew everything (~2.35 MB).
func TestNewTopologyStartsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	first := precodedNetwork(t, 10)
	jointTransmitBytes(t, first, phy.MCS7, 3)
	second := precodedNetwork(t, 10)
	bytes := jointTransmitBytes(t, second, phy.MCS7, 1)
	t.Logf("first JointTransmit of a second 10x10 network: %.2f MB", bytes/1e6)
	const byteBudget = 0.6e6
	if bytes > byteBudget {
		t.Errorf("the first JointTransmit of a new 10x10 network allocates %.2f MB, budget is %.2f MB; "+
			"its scratch is starting cold instead of coming from the recycler", bytes/1e6, byteBudget/1e6)
	}
	runtime.KeepAlive(first)
}

// TestMeasurePrecodeAllocBudget is the allocation regression gate for the
// re-measurement round a moving client triggers: EvolveClientLinks on every
// client, then Measure and the incremental Precode. With the per-round
// channel estimates in a network-owned arena, in-place CFO demodulation
// and the ZF cache's own Gram and inversion scratch, an 8-AP round keeps
// allocating only what its callers keep: the measured H, the precoder W,
// the CSI reports and the trace records. The budgets sit about 2x (count)
// and 5x (bytes) above that steady state, so a per-symbol estimate or a
// per-bin matrix copy trips them.
func TestMeasurePrecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	const aps = 8
	cfg := core.DefaultConfig(aps, aps, 18, 24)
	cfg.WellConditioned = true
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		for c := 0; c < aps; c++ {
			n.EvolveClientLinks(c, 0.995)
		}
		if err := n.Measure(); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Precode(0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the grow-only scratch and the ZF cache.
	for i := 0; i < 3; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(5, round)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("EvolveClientLinks+Measure+Precode: %.0f allocs, %.3f MB per 8-AP round", allocs, bytes/1e6)
	const budget = 800
	if allocs > budget {
		t.Errorf("an 8-AP re-measurement round allocates %.0f objects, budget is %d; "+
			"a per-symbol estimate or a per-bin matrix is being reallocated", allocs, budget)
	}
	const byteBudget = 1.25e6
	if bytes > byteBudget {
		t.Errorf("an 8-AP re-measurement round allocates %.2f MB, budget is %.2f MB; "+
			"a measurement or zero-forcing buffer is being reallocated per round", bytes/1e6, byteBudget/1e6)
	}
}
