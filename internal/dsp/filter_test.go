package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestConvolveKnown(t *testing.T) {
	x := []complex128{1, 2, 3}
	h := []complex128{1, -1}
	got := Convolve(x, h)
	want := []complex128{1, 1, 1, -3}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Convolve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []complex128{1 + 1i, 2, -3i}
	got := Convolve(x, []complex128{1})
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity convolution altered signal")
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []complex128{1}) != nil || Convolve([]complex128{1}, nil) != nil {
		t.Fatal("empty convolution should be nil")
	}
}

func TestConvolveCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := randSignal(r, 37)
	h := randSignal(r, 9)
	a, b := Convolve(x, h), Convolve(h, x)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("convolution does not commute")
		}
	}
}

func TestCrossCorrelatePeakAtOffset(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ref := randSignal(r, 32)
	x := make([]complex128, 200)
	off := 77
	copy(x[off:], ref)
	c := CrossCorrelateInto(make([]complex128, len(x)-len(ref)+1), x, ref)
	best, bestAbs := -1, 0.0
	for k, v := range c {
		if a := cmplx.Abs(v); a > bestAbs {
			best, bestAbs = k, a
		}
	}
	if best != off {
		t.Fatalf("correlation peak at %d, want %d", best, off)
	}
}

func BenchmarkConvolve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randSignal(r, 4096)
	h := randSignal(r, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Convolve(x, h)
	}
}

// TestConvolveRotateAddMatchesTwoPass pins the fused medium kernel to its
// unfused reference — convolve into scratch, rotate, accumulate —
// bit-exactly: acc·rot associates identically to conv[i]·rot, so the
// fusion must not change a single bit, for the unrolled 4-tap path and
// the general-tap path, across every window placement.
func TestConvolveRotateAddMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randv := func(n int) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return out
	}
	for _, nh := range []int{1, 3, 4, 7} {
		x := randv(50)
		h := randv(nh)
		full := Convolve(x, h)
		rot0 := cmplx.Exp(complex(0, 0.3))
		step := cmplx.Exp(complex(0, 0.01))
		for _, win := range [][2]int{{0, len(full)}, {0, 10}, {5, 20}, {len(full) - 7, len(full)}, {13, 13}} {
			lo, hi := win[0], win[1]
			want := randv(hi - lo)
			got := append([]complex128(nil), want...)
			// Reference: two-pass on the same window.
			rot := rot0
			for k := lo; k < hi; k++ {
				want[k-lo] += full[k] * rot
				rot *= step
			}
			ConvolveRotateAdd(got, x, h, lo, rot0, step)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("nh=%d window [%d,%d) sample %d: fused %v != two-pass %v", nh, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestConvolveRotateAddWindowBounds(t *testing.T) {
	x, h := make([]complex128, 10), make([]complex128, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range window did not panic")
		}
	}()
	ConvolveRotateAdd(make([]complex128, 5), x, h, 9, 1, 1) // 9+5 > 13
}

// crSpecials are the values the kernel comparison mixes into taps,
// samples, dst and the rotation: signed zeros, infinities, subnormals,
// magnitudes near overflow and small integers.
var crSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, -1e-310, 3e-308, -3e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
	1, -1, 2, -0.5,
}

// crFamily draws the parts of one complex value: Gaussian, specials
// sprinkled into Gaussians, signed zeros and ±1 only (so tap sums land on
// zeros of either sign), or NaNs of several payloads and signs sprinkled
// into Gaussians.
type crFamily struct {
	name string
	part func(r *rand.Rand) float64
}

var crNaNs = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
}

func crFamilies() []crFamily {
	gauss := func(r *rand.Rand) float64 { return r.NormFloat64() }
	return []crFamily{
		{"gaussian", gauss},
		{"specials", func(r *rand.Rand) float64 {
			if r.Intn(6) == 0 {
				return crSpecials[r.Intn(len(crSpecials))]
			}
			return gauss(r)
		}},
		{"signed-zero", func(r *rand.Rand) float64 {
			return []float64{0, math.Copysign(0, -1), 1, -1}[r.Intn(4)]
		}},
		{"nan", func(r *rand.Rand) float64 {
			if r.Intn(8) == 0 {
				return crNaNs[r.Intn(len(crNaNs))]
			}
			return gauss(r)
		}},
	}
}

func crVec(r *rand.Rand, part func(*rand.Rand) float64, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(part(r), part(r))
	}
	return out
}

// sameBits reports whether a and b are the same float64, bit for bit. A
// NaN matches any NaN when nanAny is set: the kernel and the Go step may
// pass on different payloads of NaN inputs (DESIGN.md §11).
func sameBits(a, b float64, nanAny bool) bool {
	if nanAny && math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameComplexBits(a, b complex128, nanAny bool) bool {
	return sameBits(real(a), real(b), nanAny) && sameBits(imag(a), imag(b), nanAny)
}

// TestConvolveRotateKernelMatchesGo holds convolveRotateKernel (the SSE2
// pairs on amd64 for 3 and 4 taps) to the Go step, and ConvolveRotateAdd
// to one Go-step pass over its window, bit for bit: random taps, samples,
// dst, rotation and step mixing ±0, ±Inf and subnormals, 1–7 taps, odd
// and even interiors, and every window placement over short signals.
// Inputs holding a NaN only need NaNs in the same places.
func TestConvolveRotateKernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, f := range crFamilies() {
		nanAny := f.name == "nan"
		check := func(what string, got, want []complex128, gotRot, wantRot complex128) {
			t.Helper()
			for k := range want {
				if !sameComplexBits(got[k], want[k], nanAny) {
					t.Fatalf("%s %s: output %d = %v, Go step %v", f.name, what, k, got[k], want[k])
				}
			}
			if !sameComplexBits(gotRot, wantRot, nanAny) {
				t.Fatalf("%s %s: returned rotation %v, Go step %v", f.name, what, gotRot, wantRot)
			}
		}
		for nh := 1; nh <= 7; nh++ {
			// The interior alone, at every length up to a few pairs.
			for trial := 0; trial < 300; trial++ {
				n := trial % 12
				h := crVec(r, f.part, nh)
				x := crVec(r, f.part, n+nh-1)
				want := crVec(r, f.part, n)
				got := append([]complex128(nil), want...)
				rs := crVec(r, f.part, 2)
				wantRot := convolveRotateStep(want, x, h, nh-1, rs[0], rs[1])
				gotRot := convolveRotateKernel(got, x, h, rs[0], rs[1])
				check(fmt.Sprintf("nh=%d n=%d trial %d", nh, n, trial), got, want, gotRot, wantRot)
			}
			// Every window of the full convolution of short signals.
			for nx := 1; nx <= 9; nx++ {
				for lo := 0; lo < nx+nh-1; lo++ {
					for hi := lo; hi <= nx+nh-1; hi++ {
						h := crVec(r, f.part, nh)
						x := crVec(r, f.part, nx)
						want := crVec(r, f.part, hi-lo)
						got := append([]complex128(nil), want...)
						rs := crVec(r, f.part, 2)
						wantRot := convolveRotateStep(want, x, h, lo, rs[0], rs[1])
						ConvolveRotateAdd(got, x, h, lo, rs[0], rs[1])
						check(fmt.Sprintf("nh=%d nx=%d window [%d,%d)", nh, nx, lo, hi), got, want, wantRot, wantRot)
					}
				}
			}
		}
	}
}

// BenchmarkConvolveRotateAdd times a 490-sample emission heard whole, as
// a re-measurement round's packets are, at the tap counts of the
// simulated links (3: the Haar-mixed links; 4: the indoor profile) and a
// longer one that runs the Go step.
func BenchmarkConvolveRotateAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randSignal(r, 490)
	rot, step := cmplx.Exp(complex(0, 0.3)), cmplx.Exp(complex(0, 0.01))
	for _, nh := range []int{3, 4, 7} {
		b.Run(fmt.Sprintf("taps=%d", nh), func(b *testing.B) {
			h := randSignal(r, nh)
			dst := make([]complex128, len(x)+nh-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvolveRotateAdd(dst, x, h, 0, rot, step)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/output")
		})
	}
}
