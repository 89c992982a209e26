package tracefmt

import (
	"reflect"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// fixtureTrace runs a short closed-loop MegaMIMO workload and returns its
// recorded trace: the same construction as `megamimo-sim -workload cbr`,
// with optional injected oscillator drift (lead −ppm, slaves +ppm).
func fixtureTrace(t *testing.T, driftPPM float64) (Meta, []core.TraceEvent) {
	t.Helper()
	cfg := core.DefaultConfig(3, 3, 18, 24)
	cfg.Seed = 7
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Trace().Enable(1 << 18)
	if driftPPM != 0 {
		net.SetAPDrift(units.PPM(driftPPM))
	}
	if err := net.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	// Rate-probe joint transmissions first (the sim's batch path): they
	// emit sync-header/slave-ratio/decode telemetry before any traffic.
	for i := 0; i < 12; i++ {
		if _, _, err := net.ProbeAndSelectRate(256); err != nil {
			t.Fatal(err)
		}
	}
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.ProfileFor(traffic.CBR, 6e6, 1500)
	}
	eng, err := traffic.New(net, traffic.Config{
		System: traffic.SystemMegaMIMO, Profiles: profiles, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0.05); err != nil {
		t.Fatal(err)
	}
	return MetaFor(cfg), net.Trace().Events()
}

// mistuneCFO is the test-only canary: a copy of the events with every
// slave-ratio CFO estimate inflated 100×, which is what a sync estimator
// whose CFO is off by 100× reports.
func mistuneCFO(events []core.TraceEvent) []core.TraceEvent {
	out := append([]core.TraceEvent(nil), events...)
	for i := range out {
		if out[i].Kind == core.KindSlaveRatio {
			out[i].Attrs.CFORadPerSample *= 100
		}
	}
	return out
}

// checkSet collapses anomalies to the set of check names.
func checkSet(as []Anomaly) map[string]bool {
	s := map[string]bool{}
	for _, a := range as {
		s[a.Check] = true
	}
	return s
}

// trippedSet collapses live violations to the set of check names.
func trippedSet(vs []Violation) map[string]bool {
	s := map[string]bool{}
	for _, v := range vs {
		s[v.Anomaly.Check] = true
	}
	return s
}

// monitorFixtures are the equivalence corpus: a clean run, the 21 ppm
// oscillator-drift run the gate drills use, and the clean run with its
// CFO estimates mistuned.
func monitorFixtures(t *testing.T) map[string]struct {
	meta   Meta
	events []core.TraceEvent
} {
	t.Helper()
	out := map[string]struct {
		meta   Meta
		events []core.TraceEvent
	}{}
	cleanMeta, cleanEvs := fixtureTrace(t, 0)
	driftMeta, driftEvs := fixtureTrace(t, 21)
	out["clean"] = struct {
		meta   Meta
		events []core.TraceEvent
	}{cleanMeta, cleanEvs}
	out["drift-21ppm"] = struct {
		meta   Meta
		events []core.TraceEvent
	}{driftMeta, driftEvs}
	out["mistuned-cfo"] = struct {
		meta   Meta
		events []core.TraceEvent
	}{cleanMeta, mistuneCFO(cleanEvs)}
	return out
}

// TestMonitorBatchEquivalence is the refactor's safety property: a Monitor
// fed the events one at a time produces exactly FindAnomalies' output —
// same anomalies, same messages, same order — regardless of whether live
// evaluation is on.
func TestMonitorBatchEquivalence(t *testing.T) {
	fixtures := monitorFixtures(t)
	for _, name := range []string{"clean", "drift-21ppm", "mistuned-cfo"} {
		fx := fixtures[name]
		want := FindAnomalies(fx.meta, fx.events, DefaultBudget())
		for _, window := range []int{0, DefaultMonitorWindow} {
			m := NewMonitor(fx.meta, DefaultBudget(), window)
			for _, e := range fx.events {
				m.ConsumeTrace(e)
			}
			got := m.Anomalies()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s window=%d: incremental Anomalies() diverges from FindAnomalies\n got %d: %v\nwant %d: %v",
					name, window, len(got), got, len(want), want)
			}
		}
	}
}

// TestMonitorOnlineVerdictMatchesBatch checks the live gate agrees with
// the batch verdict on every fixture: healthy exactly when batch finds
// nothing, and when unhealthy the tripped sync checks (phase-budget,
// cfo-mandate) and absolute checks match the batch check set.
func TestMonitorOnlineVerdictMatchesBatch(t *testing.T) {
	fixtures := monitorFixtures(t)
	for _, name := range []string{"clean", "drift-21ppm", "mistuned-cfo"} {
		fx := fixtures[name]
		batch := FindAnomalies(fx.meta, fx.events, DefaultBudget())
		m := NewMonitor(fx.meta, DefaultBudget(), DefaultMonitorWindow)
		for _, e := range fx.events {
			m.ConsumeTrace(e)
		}
		batchBad, onlineBad := len(batch) > 0, !m.Healthy()
		if batchBad != onlineBad {
			t.Errorf("%s: batch verdict unhealthy=%v but online unhealthy=%v (batch %v, tripped %v)",
				name, batchBad, onlineBad, checkSet(batch), trippedSet(m.Tripped()))
			continue
		}
		bs, ts := checkSet(batch), trippedSet(m.Tripped())
		// The per-AP sync checks and the absolute event checks must agree
		// exactly; the median-relative null/EVM checks may differ at the
		// margin between a sliding and a whole-run median.
		for _, check := range []string{"phase-budget", "cfo-mandate", "decode-failure", "packet-failure"} {
			if bs[check] != ts[check] {
				t.Errorf("%s: check %q batch=%v online=%v", name, check, bs[check], ts[check])
			}
		}
	}
}

// TestMonitorFirstViolation checks the streaming payoff: the drift run's
// first violation is the cfo-mandate trip, stamped with a real ether time
// inside the run, and the mistuned-sync run first trips a sync check.
func TestMonitorFirstViolation(t *testing.T) {
	fixtures := monitorFixtures(t)

	fx := fixtures["drift-21ppm"]
	m := NewMonitor(fx.meta, DefaultBudget(), DefaultMonitorWindow)
	for _, e := range fx.events {
		m.ConsumeTrace(e)
	}
	v, ok := m.FirstViolation()
	if !ok {
		t.Fatal("21 ppm drift run tripped nothing online")
	}
	if v.Anomaly.Check != "cfo-mandate" {
		t.Errorf("drift first violation = %q, want cfo-mandate (tripped %v)",
			v.Anomaly.Check, trippedSet(m.Tripped()))
	}
	if v.At <= 0 || v.At > m.LastAt() {
		t.Errorf("first violation at t=%d outside the run (last t=%d)", v.At, m.LastAt())
	}
	if !checkSet(FindAnomalies(fx.meta, fx.events, DefaultBudget()))["cfo-mandate"] {
		t.Error("batch misses the cfo-mandate anomaly the monitor tripped")
	}

	fx = fixtures["mistuned-cfo"]
	m = NewMonitor(fx.meta, DefaultBudget(), DefaultMonitorWindow)
	for _, e := range fx.events {
		m.ConsumeTrace(e)
	}
	v, ok = m.FirstViolation()
	if !ok {
		t.Fatal("mistuned-CFO run tripped nothing online")
	}
	// The clean run's own anomalies, if any, may come first — but the first
	// violation must be a check batch analysis confirms, and the sync
	// checks must trip too once the window has samples.
	batch := checkSet(FindAnomalies(fx.meta, fx.events, DefaultBudget()))
	if !batch[v.Anomaly.Check] {
		t.Errorf("mistuned first violation %q not confirmed by batch (%v)", v.Anomaly.Check, batch)
	}
	ts := trippedSet(m.Tripped())
	if !ts["phase-budget"] && !ts["cfo-mandate"] {
		t.Errorf("mistuned run never tripped a sync check online (tripped %v)", ts)
	}
}

// TestMistunedCFOCanary proves the anomaly gate rejects a broken sync
// estimator: even at a tiny 2 ppm injected drift, CFO estimates inflated
// 100× blow through the ±40 ppm mandate.
func TestMistunedCFOCanary(t *testing.T) {
	meta, events := fixtureTrace(t, 2)
	if got := checkSet(FindAnomalies(meta, mistuneCFO(events), DefaultBudget())); !got["cfo-mandate"] {
		t.Errorf("mistuned CFO at 2 ppm not rejected citing cfo-mandate (checks %v)", got)
	}
}

// TestMonitorAsSinkStreamsLive wires a Monitor directly to a Tracer as its
// sink and checks violations trip during emission, not only at the end.
func TestMonitorAsSinkStreamsLive(t *testing.T) {
	meta := Meta{SampleRate: 10e6, CarrierHz: 2.437e9}
	m := NewMonitor(meta, DefaultBudget(), 16)
	tr := &core.Tracer{}
	tr.SetSink(m)
	tr.Enable(4) // tiny ring: the monitor must see past the overflow
	for i := 0; i < 32; i++ {
		tr.Emit(int64(1000*i), core.KindSlaveRatio,
			core.TraceAttrs{AP: 1, PhaseErrRad: 0.5, CFORadPerSample: 0}, "")
	}
	if m.Healthy() {
		t.Fatal("0.5 rad median residual did not trip the phase budget")
	}
	v, _ := m.FirstViolation()
	if v.Anomaly.Check != "phase-budget" || v.Anomaly.AP != 1 {
		t.Fatalf("first violation %+v, want phase-budget on AP 1", v.Anomaly)
	}
	if m.Events() != 32 {
		t.Fatalf("monitor saw %d events through a 4-slot ring, want all 32", m.Events())
	}
}
