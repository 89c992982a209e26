package sync

import (
	"math"
	"reflect"
	"testing"

	"megamimo/internal/cmplxs"
	"megamimo/internal/ofdm"
	"megamimo/internal/units"
)

// synthRef builds a deterministic unit-magnitude reference channel on the
// occupied bins.
func synthRef() []complex128 {
	ref := make([]complex128, ofdm.NFFT)
	for _, k := range occCarriers {
		ref[ofdm.Bin(k)] = cmplxs.Expi(units.Radians(0.13 * float64(k)))
	}
	return ref
}

// observeAt returns the reference rotated by the true oscillator advance at
// ether time t: a noiseless received channel snapshot.
func observeAt(ref []complex128, cfo units.RadPerSample, t int64) []complex128 {
	rot := cmplxs.Expi(units.PhaseAdvance(cfo, units.Samples(t)))
	cur := make([]complex128, ofdm.NFFT)
	for _, k := range occCarriers {
		b := ofdm.Bin(k)
		cur[b] = ref[b] * rot
	}
	return cur
}

// predictionError measures how far a strategy's predicted correction at
// time t is from the true oscillator advance.
func predictionError(s Strategy, ps *Peer, cfo units.RadPerSample, t int64) float64 {
	c := s.Predict(ps, t)
	b := ofdm.Bin(occCarriers[0])
	truth := cmplxs.Expi(units.PhaseAdvance(cfo, units.Samples(t)))
	return math.Abs(units.Ratio(cmplxs.Phase(c.Ratio[b]*conj(truth)), 1))
}

// TestStrategiesConvergeUnderZeroDrift seeds every strategy with a wrong
// initial CFO against oscillators that are perfectly locked, and checks the
// predicted phase converges toward zero error as noiseless measurements
// accumulate.
func TestStrategiesConvergeUnderZeroDrift(t *testing.T) {
	const step = 40_000 // one BeamSync burst interval per measurement
	const horizon = 2_000
	ref := synthRef()
	for _, name := range []string{"header", "airsync", "beamsync"} {
		s, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		ps := &Peer{}
		// The capture's CFO estimate is wrong by 1e-5 rad/sample — inside
		// the 2π ambiguity bound over one measurement gap (1e-5 × 40 000 =
		// 0.4 rad < π) — while the true oscillators never drift.
		s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 1e-5, Baseline: 64})
		first := predictionError(s, ps, 0, step/4)
		var at int64
		for k := 1; k <= 16; k++ {
			at = int64(k) * step
			if _, err := s.Measure(ps, observeAt(ref, 0, at), at); err != nil {
				t.Fatalf("%s: measure %d: %v", name, k, err)
			}
		}
		last := predictionError(s, ps, 0, at+horizon)
		if last >= first {
			t.Errorf("%s: prediction error grew under zero drift: %.6f -> %.6f rad", name, first, last)
		}
		if last > 0.02 {
			t.Errorf("%s: prediction error %.6f rad after 16 clean measurements, want < 0.02", name, last)
		}
	}
}

// TestStrategiesTrackDrift checks every strategy's prediction stays inside
// the π/18 nulling budget while tracking a constant oscillator drift up to
// the 20 ppm mandate (≈1.2e-3 rad/sample relative at 10 MHz sampling from
// a 2.4 GHz carrier at ±10 ppm each side).
func TestStrategiesTrackDrift(t *testing.T) {
	const step = 40_000
	const horizon = 2_000
	ref := synthRef()
	for _, cfo := range []units.RadPerSample{1e-5, 3e-4, 1.2e-3} {
		for _, name := range []string{"header", "airsync", "beamsync"} {
			s, err := Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			ps := &Peer{}
			s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: cfo, Baseline: 64})
			var at int64
			for k := 1; k <= 16; k++ {
				at = int64(k) * step
				if _, err := s.Measure(ps, observeAt(ref, cfo, at), at); err != nil {
					t.Fatalf("%s: measure %d: %v", name, k, err)
				}
			}
			if err := predictionError(s, ps, cfo, at+horizon); err > math.Pi/18 {
				t.Errorf("%s at cfo %v: prediction error %.4f rad exceeds π/18", name, cfo, err)
			}
		}
	}
}

// TestPredictDoesNotMutate pins the Strategy contract's only aliasing rule:
// Predict must leave the peer untouched.
func TestPredictDoesNotMutate(t *testing.T) {
	ref := synthRef()
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		ps := &Peer{}
		s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 5e-5, Baseline: 64})
		if _, err := s.Measure(ps, observeAt(ref, 5e-5, 9_000), 9_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := *ps
		s.Predict(ps, 55_000)
		if !reflect.DeepEqual(*ps, before) {
			t.Errorf("%s: Predict mutated the peer", name)
		}
	}
}

// TestConfidenceContract checks the abstain semantics every caller relies
// on: zero budget always abstains, and a fresh measurement is trusted.
func TestConfidenceContract(t *testing.T) {
	ref := synthRef()
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		ps := &Peer{}
		s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 0, Baseline: 64})
		if _, err := s.Measure(ps, observeAt(ref, 0, 1_000), 1_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := s.Confidence(ps, 1_100, 0); c > 0 {
			t.Errorf("%s: confidence %v with zero budget, want ≤ 0 (abstain)", name, c)
		}
		if c := s.Confidence(ps, 1_100, 1_000_000); c <= 0 {
			t.Errorf("%s: confidence %v right after a measurement, want > 0", name, c)
		}
	}
}

// TestParseRegistry pins the registry names and the unknown-name error.
// The mistuned BeamSync canary is test-only: it reports its own name in
// trace meta but must not parse.
func TestParseRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, s.Name())
		}
	}
	if s, err := Parse(""); err != nil || s.Name() != "header" {
		t.Errorf("Parse(\"\") = %v, %v; want the header scheme", s, err)
	}
	for _, name := range []string{"nonesuch", "beamsync-mistuned"} {
		if _, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", name)
		}
	}
	if got := (BeamSync{IntervalScale: 0.01}).Name(); got != "beamsync-mistuned" {
		t.Errorf("mistuned canary Name() = %q, want beamsync-mistuned", got)
	}
}
