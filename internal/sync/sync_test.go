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

// predictionError measures how far the predicted correction at time t is
// from the true oscillator advance.
func predictionError(s HeaderSync, ps *Peer, cfo units.RadPerSample, t int64) float64 {
	c := s.Predict(ps, t)
	b := ofdm.Bin(occCarriers[0])
	truth := cmplxs.Expi(units.PhaseAdvance(cfo, units.Samples(t)))
	return math.Abs(units.Ratio(cmplxs.Phase(c.Ratio[b]*conj(truth)), 1))
}

// TestStrategiesConvergeUnderZeroDrift seeds the header scheme with a
// wrong initial CFO against oscillators that are perfectly locked, and
// checks the predicted phase converges toward zero error as noiseless
// measurements accumulate.
func TestStrategiesConvergeUnderZeroDrift(t *testing.T) {
	const step = 40_000
	const horizon = 2_000
	ref := synthRef()
	s := Header()
	ps := &Peer{}
	// The capture's CFO estimate is wrong by 1e-5 rad/sample — inside the
	// 2π ambiguity bound over one measurement gap (1e-5 × 40 000 = 0.4 rad
	// < π) — while the true oscillators never drift.
	s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 1e-5, Baseline: 64})
	first := predictionError(s, ps, 0, step/4)
	var at int64
	for k := 1; k <= 16; k++ {
		at = int64(k) * step
		if _, err := s.Measure(ps, observeAt(ref, 0, at), at); err != nil {
			t.Fatalf("measure %d: %v", k, err)
		}
	}
	last := predictionError(s, ps, 0, at+horizon)
	if last >= first {
		t.Errorf("prediction error grew under zero drift: %.6f -> %.6f rad", first, last)
	}
	if last > 0.02 {
		t.Errorf("prediction error %.6f rad after 16 clean measurements, want < 0.02", last)
	}
}

// TestStrategiesTrackDrift checks the header scheme's prediction stays inside
// the π/18 nulling budget while tracking a constant oscillator drift up to
// the 20 ppm mandate (≈1.2e-3 rad/sample relative at 10 MHz sampling from
// a 2.4 GHz carrier at ±10 ppm each side).
func TestStrategiesTrackDrift(t *testing.T) {
	const step = 40_000
	const horizon = 2_000
	ref := synthRef()
	s := Header()
	for _, cfo := range []units.RadPerSample{1e-5, 3e-4, 1.2e-3} {
		ps := &Peer{}
		s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: cfo, Baseline: 64})
		var at int64
		for k := 1; k <= 16; k++ {
			at = int64(k) * step
			if _, err := s.Measure(ps, observeAt(ref, cfo, at), at); err != nil {
				t.Fatalf("cfo %v: measure %d: %v", cfo, k, err)
			}
		}
		if err := predictionError(s, ps, cfo, at+horizon); err > math.Pi/18 {
			t.Errorf("cfo %v: prediction error %.4f rad exceeds π/18", cfo, err)
		}
	}
}

// TestPredictDoesNotMutate pins the contract's only aliasing rule: Predict
// must leave the peer untouched.
func TestPredictDoesNotMutate(t *testing.T) {
	ref := synthRef()
	s := Header()
	ps := &Peer{}
	s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 5e-5, Baseline: 64})
	if _, err := s.Measure(ps, observeAt(ref, 5e-5, 9_000), 9_000); err != nil {
		t.Fatal(err)
	}
	before := *ps
	s.Predict(ps, 55_000)
	if !reflect.DeepEqual(*ps, before) {
		t.Error("Predict mutated the peer")
	}
}

// TestConfidenceContract checks the abstain semantics every caller relies
// on: zero budget always abstains, and a fresh measurement is trusted.
func TestConfidenceContract(t *testing.T) {
	ref := synthRef()
	s := Header()
	ps := &Peer{}
	s.Init(ps, RefCapture{Ref: ref, RefAt: 0, CFO: 0, Baseline: 64})
	if _, err := s.Measure(ps, observeAt(ref, 0, 1_000), 1_000); err != nil {
		t.Fatal(err)
	}
	if c := s.Confidence(ps, 1_100, 0); c > 0 {
		t.Errorf("confidence %v with zero budget, want ≤ 0 (abstain)", c)
	}
	if c := s.Confidence(ps, 1_100, 1_000_000); c <= 0 {
		t.Errorf("confidence %v right after a measurement, want > 0", c)
	}
}
