package dsp

import (
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

func TestConvolveIntoAccumulates(t *testing.T) {
	dst := make([]complex128, 4)
	x := []complex128{1, 1, 1}
	h := []complex128{2, 0}
	ConvolveInto(dst, x, h)
	ConvolveInto(dst, x, h)
	for i := 0; i < 3; i++ {
		if dst[i] != 4 {
			t.Fatalf("dst = %v", dst)
		}
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
