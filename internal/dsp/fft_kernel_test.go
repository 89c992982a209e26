package dsp_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
)

// kernelInput draws a 64-point transform input of the given kind: Gaussian,
// Gaussian with signed zeros, with a few ±Inf parts, subnormal, or huge
// enough that the butterflies overflow.
func kernelInput(r *rand.Rand, kind int) []complex128 {
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	part := func(v float64) float64 {
		switch kind {
		case 1:
			if r.Intn(2) == 0 {
				return math.Copysign(0, v)
			}
		case 2:
			if r.Intn(32) == 0 {
				return math.Inf(int(math.Copysign(1, v)))
			}
		case 3:
			return v * 1e-310
		case 4:
			return v * math.Pow(10, 300+7*r.Float64())
		}
		return v
	}
	for i, v := range x {
		x[i] = complex(part(real(v)), part(imag(v)))
	}
	return x
}

// sameBits reports whether got and want hold the same float64 bits, where
// a NaN matches any NaN: which NaN payload an operation on two NaNs keeps
// depends on the operand order the Go compiler picks.
func sameBits(got, want []complex128) (int, bool) {
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
	}
	for i := range want {
		if !eq(real(got[i]), real(want[i])) || !eq(imag(got[i]), imag(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestFFT64KernelMatchesGo holds every 64-point transform path to the Go
// steps, reorder and butterflies, bit for bit: Forward, Inverse,
// ForwardScaled and InverseScaled in place and out of place, and ofdm's
// FreqInto, FreqBatchInto and RawSymbolInto, which run the shared plan. Inputs are
// Gaussian, signed zeros, ±Inf, subnormal and near the overflow limit.
// Where the CPU lacks AVX2 both sides run the Go steps.
func TestFFT64KernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	kernel, goSteps := dsp.MustPlanFor(64), dsp.GoFFTPlan(64)
	// The scales include the OFDM modem's 1/8 and 8, signed zeros, an
	// infinity and a NaN.
	scales := []float64{0.125, 8, -3.5e-9, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	scaled := func(f func(dst, src []complex128, s float64), s float64) func(dst, src []complex128) {
		return func(dst, src []complex128) { f(dst, src, s) }
	}
	const trials = 2000
	for trial := range trials {
		kind := trial % 5
		src := kernelInput(r, kind)
		s := scales[trial%len(scales)]
		for _, d := range []struct {
			name      string
			got, want func(dst, src []complex128)
		}{
			{"forward", kernel.Forward, goSteps.Forward},
			{"inverse", kernel.Inverse, goSteps.Inverse},
			{"forward scaled", scaled(kernel.ForwardScaled, s), scaled(goSteps.ForwardScaled, s)},
			{"inverse scaled", scaled(kernel.InverseScaled, s), scaled(goSteps.InverseScaled, s)},
		} {
			want := make([]complex128, len(src))
			d.want(want, src)
			got := make([]complex128, len(src))
			d.got(got, src)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("trial %d (kind %d, scale %v) %s: bin %d = %v, Go steps %v", trial, kind, s, d.name, i, got[i], want[i])
			}
			inPlace := slices.Clone(src)
			d.got(inPlace, inPlace)
			if i, ok := sameBits(inPlace, want); !ok {
				t.Fatalf("trial %d (kind %d, scale %v) %s in place: bin %d = %v, Go steps %v", trial, kind, s, d.name, i, inPlace[i], want[i])
			}
		}
	}

	// The OFDM wrappers, against themselves with the shared plan held to
	// the Go steps.
	demod, mod := ofdm.NewDemodulator(), ofdm.NewModulator()
	run := func(x []complex128) (freq, batch, sym []complex128) {
		freq = make([]complex128, ofdm.NFFT)
		batch = make([]complex128, 2*ofdm.NFFT)
		sym = make([]complex128, ofdm.SymbolLen)
		if err := demod.FreqInto(freq, x); err != nil {
			t.Fatal(err)
		}
		if err := demod.FreqBatchInto(batch, x, 2); err != nil {
			t.Fatal(err)
		}
		if err := mod.RawSymbolInto(sym, x[:ofdm.NFFT]); err != nil {
			t.Fatal(err)
		}
		return freq, batch, sym
	}
	for trial := range 500 {
		var x []complex128
		for range 3 {
			x = append(x, kernelInput(r, trial%5)...)
		}
		x = x[:2*ofdm.SymbolLen]
		freq, batch, sym := run(x)
		restore := dsp.GoFFT64()
		wantFreq, wantBatch, wantSym := run(x)
		restore()
		for _, c := range []struct {
			name      string
			got, want []complex128
		}{{"FreqInto", freq, wantFreq}, {"FreqBatchInto", batch, wantBatch}, {"RawSymbolInto", sym, wantSym}} {
			if i, ok := sameBits(c.got, c.want); !ok {
				t.Fatalf("trial %d %s: [%d] = %v, Go steps %v", trial, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
