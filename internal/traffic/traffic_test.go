package traffic

import (
	"math"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/mac"
	"megamimo/internal/metrics"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
)

// testNetwork builds a small measured high-SNR network.
func testNetwork(t *testing.T, seed int64) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(2, 2, 18, 24)
	cfg.Seed = seed
	n, err := core.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatalf("MeasureAndPrecode: %v", err)
	}
	return n
}

// drainGen counts packets a generator emits inside a window.
func drainGen(g *gen, horizon int64) int {
	n := 0
	for g.peek() < horizon {
		n += g.pop()
	}
	return n
}

func TestGenOfferedRates(t *testing.T) {
	const (
		sampleRate = 10e6
		seconds    = 2.0
		rateBps    = 6e6
		pktBytes   = 1500
	)
	horizon := int64(seconds * sampleRate)
	want := rateBps * seconds / float64(8*pktBytes)
	for _, kind := range []Kind{CBR, Poisson, OnOff, HeavyTailed} {
		p := ProfileFor(kind, rateBps, pktBytes)
		var got float64
		const reps = 8
		for r := 0; r < reps; r++ {
			g := newGen(p, rng.New(int64(100+r)), sampleRate, 0)
			got += float64(drainGen(g, horizon))
		}
		got /= reps
		if got < 0.7*want || got > 1.3*want {
			t.Errorf("%v: offered %.0f packets, want ≈%.0f", kind, got, want)
		}
	}
}

func TestGenZeroRateNeverFires(t *testing.T) {
	g := newGen(Profile{Kind: Poisson}, rng.New(1), 10e6, 0)
	if g.peek() != never {
		t.Fatalf("zero-rate gen scheduled an arrival at %d", g.peek())
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{CBR, Poisson, OnOff, HeavyTailed} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus kind")
	}
}

func TestProfileCountMismatch(t *testing.T) {
	n := testNetwork(t, 11)
	_, err := New(n, Config{Profiles: []Profile{NewCBR(1e6, 256)}})
	if err == nil {
		t.Fatal("New accepted wrong profile count")
	}
}

// engineReport runs one closed-loop window and returns the report.
func engineReport(t *testing.T, sys System, netSeed, engSeed int64, rateBps, seconds float64) *Report {
	t.Helper()
	n := testNetwork(t, netSeed)
	streams := n.NumStreams()
	profiles := make([]Profile, streams)
	for i := range profiles {
		profiles[i] = NewPoisson(rateBps, 256)
	}
	e, err := New(n, Config{System: sys, Profiles: profiles, Seed: engSeed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := e.Run(seconds)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestEngineClosedLoopDelivers(t *testing.T) {
	rep := engineReport(t, SystemMegaMIMO, 21, 5, 2e6, 0.02)
	if rep.AggregateOfferedBps <= 0 {
		t.Fatal("no load offered")
	}
	if rep.AggregateDeliveredBps <= 0 {
		t.Fatal("closed loop delivered nothing")
	}
	if rep.AggregateDeliveredBps > rep.AggregateOfferedBps+1 {
		t.Fatalf("delivered %.0f bps exceeds offered %.0f bps",
			rep.AggregateDeliveredBps, rep.AggregateOfferedBps)
	}
	for _, c := range rep.Clients {
		if c.DeliveredPackets > 0 && (math.IsNaN(c.P50LatencyMs) || c.P50LatencyMs <= 0) {
			t.Errorf("stream %d: delivered %d packets but p50 latency %.3f ms",
				c.Stream, c.DeliveredPackets, c.P50LatencyMs)
		}
	}
	if rep.Fairness <= 0 || rep.Fairness > 1.0000001 {
		t.Fatalf("fairness %.3f out of range", rep.Fairness)
	}
}

func TestEngineDeterministicRepeat(t *testing.T) {
	a := engineReport(t, SystemMegaMIMO, 33, 9, 4e6, 0.01)
	b := engineReport(t, SystemMegaMIMO, 33, 9, 4e6, 0.01)
	if a.String() != b.String() {
		t.Fatalf("same seeds diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestEngineTDMABaselineRuns(t *testing.T) {
	rep := engineReport(t, SystemTDMA, 21, 5, 2e6, 0.02)
	if rep.AggregateDeliveredBps <= 0 {
		t.Fatal("TDMA baseline delivered nothing")
	}
}

// TestTDMAGivesUpAfterMaxAttempts pins the 802.11 service's attempt bound:
// a packet its link can never deliver is transmitted exactly
// mac.DefaultMaxAttempts times, then leaves the queue and counts once as
// failed.
func TestTDMAGivesUpAfterMaxAttempts(t *testing.T) {
	cfg := core.DefaultConfig(2, 2, 5, 7)
	cfg.Seed = 61
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	streams := n.NumStreams()
	profiles := make([]Profile, streams)
	for i := range profiles {
		profiles[i] = NewCBR(1e6, 256)
	}
	e, err := New(n, Config{System: SystemTDMA, Profiles: profiles, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Prepare(); err != nil {
		t.Fatal(err)
	}
	// 64-QAM 3/4 over 5-7 dB links never decodes.
	for i := range e.links {
		e.links[i].mcs, e.links[i].ok = phy.MCS7, true
	}
	pkts := make([]*mac.Packet, streams)
	for i := range pkts {
		pkts[i] = &mac.Packet{Stream: i, Payload: e.payloads[i]}
		e.queue.Push(pkts[i])
	}
	transmissions := 0
	for e.queue.Len() > 0 {
		if transmissions > streams*mac.DefaultMaxAttempts {
			t.Fatalf("queue still holds %d packets after %d transmissions", e.queue.Len(), transmissions)
		}
		before := n.Now()
		if err := e.serveTDMA(); err != nil {
			t.Fatal(err)
		}
		if n.Now()-before <= 384 {
			t.Fatalf("service call %d spent %d samples: no frame went on the air", transmissions, n.Now()-before)
		}
		transmissions++
	}
	if transmissions != streams*mac.DefaultMaxAttempts {
		t.Fatalf("%d transmissions for %d undeliverable packets, want %d each", transmissions, streams, mac.DefaultMaxAttempts)
	}
	for i, p := range pkts {
		if p.Delivered || p.Attempts != mac.DefaultMaxAttempts || e.failed[i] != 1 || e.delivered[i] != 0 {
			t.Errorf("stream %d: delivered=%v attempts=%d failed=%d, want attempts %d and one failure",
				i, p.Delivered, p.Attempts, e.failed[i], mac.DefaultMaxAttempts)
		}
	}
}

func TestTrafficEmitsTraceEvents(t *testing.T) {
	n := testNetwork(t, 55)
	n.Trace().Enable(0)
	streams := n.NumStreams()
	profiles := make([]Profile, streams)
	for i := range profiles {
		profiles[i] = NewPoisson(2e6, 256)
	}
	e, err := New(n, Config{Profiles: profiles, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(0.005); err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := 0
	for _, ev := range n.Trace().Events() {
		if ev.Kind == core.KindTraffic {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("want ≥2 %q trace events, got %d", core.KindTraffic, found)
	}
}

// TestEngineSamplerCadence checks the streaming-metrics hook: a wired
// sampler snapshots every SampleEvery rounds plus once at the horizon,
// with monotone ether timestamps and matching metrics trace instants.
func TestEngineSamplerCadence(t *testing.T) {
	n := testNetwork(t, 31)
	n.Trace().Enable(1 << 16)
	s := metrics.NewSampler(n.Metrics())
	var series []metrics.Sample
	s.OnSample = func(sm metrics.Sample) { series = append(series, sm) }
	profiles := []Profile{NewCBR(4e6, 1200), NewCBR(4e6, 1200)}
	eng, err := New(n, Config{
		System: SystemMegaMIMO, Profiles: profiles, Seed: 5,
		Sampler: s, SampleEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := rep.Rounds/4 + 1 // cadence points + the final horizon point
	if len(series) != wantLen {
		t.Fatalf("sampler took %d points over %d rounds (every 4), want %d",
			len(series), rep.Rounds, wantLen)
	}
	for i := 1; i < len(series); i++ {
		if series[i].At < series[i-1].At {
			t.Fatalf("series timestamps not monotone: %d then %d", series[i-1].At, series[i].At)
		}
	}
	var traced int
	for _, e := range n.Trace().Events() {
		if e.Kind == core.KindMetrics {
			traced++
		}
	}
	if traced != len(series) {
		t.Fatalf("%d metrics trace instants for %d samples", traced, len(series))
	}
	// Counters must be present and the final point cumulative.
	last := series[len(series)-1]
	if len(last.Counters) == 0 {
		t.Fatal("final sample has no counters")
	}
}
