package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i, v := range x {
			ang := -2 * math.Pi * float64(k*i) / float64(n)
			acc += v * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

// FFT returns the DFT of src through a plan built for the call.
func FFT(src []complex128) []complex128 {
	dst := make([]complex128, len(src))
	MustFFTPlan(len(src)).Forward(dst, src)
	return dst
}

// IFFT is FFT's scaled inverse.
func IFFT(src []complex128) []complex128 {
	dst := make([]complex128, len(src))
	MustFFTPlan(len(src)).Inverse(dst, src)
	return dst
}

func randSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 2; n <= 1024; n <<= 1 {
		x := randSignal(r, n)
		got := FFT(x)
		want := naiveDFT(x)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 64, 1024} {
		x := randSignal(r, n)
		back := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d round trip [%d]: %v != %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randSignal(r, 64)
	want := FFT(x)
	p := MustFFTPlan(64)
	buf := append([]complex128(nil), x...)
	p.Forward(buf, buf)
	for i := range buf {
		if cmplx.Abs(buf[i]-want[i]) > 1e-9 {
			t.Fatalf("in-place FFT differs at %d", i)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	for i, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	k0 := 5
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k0*i)/float64(n)))
	}
	got := FFT(x)
	for k, v := range got {
		want := complex128(0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Fatalf("tone bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := randSignal(r, 256)
	X := FFT(x)
	var et, ef float64
	for i := range x {
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
	}
	if math.Abs(ef/float64(len(x))-et) > 1e-6*et {
		t.Fatalf("Parseval violated: time %v freq/N %v", et, ef/float64(len(x)))
	}
}

func TestNewFFTPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Fatalf("NewFFTPlan(%d) accepted", n)
		}
	}
}

// Property: linearity of the transform.
func TestQuickFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := randSignal(r, 64), randSignal(r, 64)
		a := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, 64)
		for i := range sum {
			sum[i] = x[i] + a*y[i]
		}
		fs := FFT(sum)
		fx, fy := FFT(x), FFT(y)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fx[i]+a*fy[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: circular time shift is a per-bin phase ramp in frequency.
func TestQuickFFTShiftTheorem(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		x := randSignal(r, n)
		s := 1 + r.Intn(n-1)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i+s)%n]
		}
		fx, fsh := FFT(x), FFT(shifted)
		for k := range fx {
			ramp := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
			if cmplx.Abs(fsh[k]-fx[k]*ramp) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFFT64 times one 64-point forward transform as dispatched
// (fft64AVX2 where the CPU has AVX2) and through the Go steps.
func BenchmarkFFT64(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 64)
	dst := make([]complex128, 64)
	for _, bc := range []struct {
		name string
		plan *FFTPlan
	}{{"dispatched", MustFFTPlan(64)}, {"go", GoFFTPlan(64)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.plan.Forward(dst, x)
			}
		})
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p := MustFFTPlan(1024)
	x := randSignal(rand.New(rand.NewSource(1)), 1024)
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}
