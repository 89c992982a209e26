package ofdm

import (
	"math"
	"math/rand"
	"megamimo/internal/units"
	"testing"

	"megamimo/internal/cmplxs"
	"megamimo/internal/rng"
)

// buildRxSymbol passes known data through a flat channel with a common
// phase offset and returns the received frequency bins.
func buildRxSymbol(t *testing.T, data []complex128, symIdx int, h complex128, cpe units.Radians, noise *rng.Source, nv float64) []complex128 {
	t.Helper()
	mod := NewModulator()
	sym, err := mod.Symbol(data, symIdx)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sym))
	rot := h * cmplxs.Expi(cpe)
	for i := range sym {
		rx[i] = sym[i]*rot + noise.ComplexNormal(nv)
	}
	freq := make([]complex128, NFFT)
	if err := NewDemodulator().FreqInto(freq, rx); err != nil {
		t.Fatal(err)
	}
	return freq
}

func TestEqualizerRemovesCommonPhase(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	noise := rng.New(2)
	h := make([]complex128, NFFT)
	gain := 0.8 - 0.3i
	for i := range h {
		h[i] = gain
	}
	eq, err := NewEqualizer(h)
	if err != nil {
		t.Fatal(err)
	}
	data := randQPSK(r, NData)
	// A constant 0.3 rad common phase on every symbol must vanish.
	for s := 0; s < 6; s++ {
		freq := buildRxSymbol(t, data, s, gain, 0.3, noise, 1e-6)
		out, err := equalize(eq, freq)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			continue // tracker warm-up
		}
		for i := range out {
			if d := out[i] - data[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-3 {
				t.Fatalf("symbol %d subcarrier %d: residual %v", s, i, d)
			}
		}
	}
}

func TestEqualizerTracksPhaseRamp(t *testing.T) {
	// A slowly ramping common phase (residual CFO ≈ 0.03 rad/symbol) must
	// be tracked by the pilots without data errors.
	r := rand.New(rand.NewSource(3))
	noise := rng.New(4)
	h := make([]complex128, NFFT)
	for i := range h {
		h[i] = 1
	}
	eq, _ := NewEqualizer(h)
	for s := 0; s < 20; s++ {
		data := randQPSK(r, NData)
		cpe := units.Radians(0.03 * float64(s))
		freq := buildRxSymbol(t, data, s, 1, cpe, noise, 1e-5)
		out, err := equalize(eq, freq)
		if err != nil {
			t.Fatal(err)
		}
		if s < 3 {
			continue // let the EWMA settle onto the ramp
		}
		for i := range out {
			if d := out[i] - data[i]; real(d)*real(d)+imag(d)*imag(d) > 0.05 {
				t.Fatalf("symbol %d: tracker lost the ramp (residual %v)", s, d)
			}
		}
	}
}

func TestEqualizerRawVsSmoothedPhase(t *testing.T) {
	// RawCommonPhase reflects each symbol alone; CommonPhase is smoothed.
	r := rand.New(rand.NewSource(5))
	noise := rng.New(6)
	h := make([]complex128, NFFT)
	for i := range h {
		h[i] = 1
	}
	eq, _ := NewEqualizer(h)
	// Alternate the true phase: raw should bounce, smoothed should sit
	// between.
	var raws, smooths []units.Radians
	for s := 0; s < 12; s++ {
		cpe := units.Radians(0)
		if s%2 == 1 {
			cpe = 0.2
		}
		freq := buildRxSymbol(t, randQPSK(r, NData), s, 1, cpe, noise, 1e-6)
		if _, err := equalize(eq, freq); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, eq.RawCommonPhase())
		smooths = append(smooths, eq.CommonPhase())
	}
	rawSpread := spread(raws[2:])
	smoothSpread := spread(smooths[2:])
	if smoothSpread >= rawSpread {
		t.Fatalf("smoothed spread %.3f not below raw %.3f", smoothSpread, rawSpread)
	}
}

func spread(xs []units.Radians) units.Radians {
	lo, hi := units.Radians(math.Inf(1)), units.Radians(math.Inf(-1))
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

func TestEqualizerRejectsWrongLengths(t *testing.T) {
	if _, err := NewEqualizer(make([]complex128, 32)); err == nil {
		t.Fatal("short channel accepted")
	}
	eq, _ := NewEqualizer(make([]complex128, NFFT))
	if _, err := equalize(eq, make([]complex128, 10)); err == nil {
		t.Fatal("short symbol accepted")
	}
}

func TestEqualizerZeroChannelBins(t *testing.T) {
	// Bins with zero channel estimate must come out as zero, not Inf/NaN.
	h := make([]complex128, NFFT)
	eq, _ := NewEqualizer(h)
	freq := make([]complex128, NFFT)
	for i := range freq {
		freq[i] = 1
	}
	out, err := equalize(eq, freq)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero-channel bin %d produced %v", i, v)
		}
	}
}

func TestSmoothChannelReducesNoise(t *testing.T) {
	src := rng.New(7)
	// True channel: smooth 3-tap response.
	taps := []complex128{1, 0.4i, -0.2}
	truth := (&fakeLink{taps}).freqResponse()
	noisy := make([]complex128, NFFT)
	nv := 0.02
	for _, k := range OccupiedCarriers() {
		noisy[Bin(k)] = truth[Bin(k)] + src.ComplexNormal(nv)
	}
	smoothed := append([]complex128(nil), noisy...)
	SmoothChannel(smoothed)
	var before, after float64
	for _, k := range OccupiedCarriers() {
		b := Bin(k)
		d1 := noisy[b] - truth[b]
		d2 := smoothed[b] - truth[b]
		before += real(d1)*real(d1) + imag(d1)*imag(d1)
		after += real(d2)*real(d2) + imag(d2)*imag(d2)
	}
	if after >= before*0.7 {
		t.Fatalf("smoothing reduced error only %.2fx", before/after)
	}
}

type fakeLink struct{ taps []complex128 }

func (f *fakeLink) freqResponse() []complex128 {
	out := make([]complex128, NFFT)
	for k := 0; k < NFFT; k++ {
		var acc complex128
		for m, tap := range f.taps {
			acc += tap * cmplxs.Expi(units.Radians(-2*math.Pi*float64(k*m)/NFFT))
		}
		out[k] = acc
	}
	return out
}

// equalize runs SymbolInto into a fresh destination.
func equalize(eq *Equalizer, freq []complex128) ([]complex128, error) {
	out := make([]complex128, NData)
	return out, eq.SymbolInto(out, freq)
}
