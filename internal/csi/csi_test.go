package csi

import (
	"math"
	"math/cmplx"
	"testing"

	"megamimo/internal/rng"
)

func TestQuantizeZeroBitsIsCopy(t *testing.T) {
	h := []complex128{1 + 2i, -0.5i}
	q := Quantize(h, 0)
	for i := range h {
		if q[i] != h[i] {
			t.Fatal("bits=0 should not change values")
		}
	}
	q[0] = 0
	if h[0] != 1+2i {
		t.Fatal("Quantize must copy")
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	src := rng.New(1)
	h := src.AddComplexNormal(make([]complex128, 64), 1)
	for _, bits := range []int{4, 8, 12} {
		q := Quantize(h, bits)
		var fs float64
		for _, v := range h {
			fs = math.Max(fs, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
		}
		step := fs / float64(int(1)<<bits)
		bound := step * math.Sqrt2 / 2 * 1.0001
		for i := range h {
			if cmplx.Abs(q[i]-h[i]) > bound {
				t.Fatalf("bits=%d entry %d error %v > bound %v", bits, i, cmplx.Abs(q[i]-h[i]), bound)
			}
		}
	}
}

func TestQuantizeMoreBitsIsFiner(t *testing.T) {
	src := rng.New(2)
	h := src.AddComplexNormal(make([]complex128, 64), 1)
	e4 := MaxQuantError(h, Quantize(h, 4))
	e10 := MaxQuantError(h, Quantize(h, 10))
	if e10 >= e4 {
		t.Fatalf("10-bit error %v not finer than 4-bit %v", e10, e4)
	}
}

func TestQuantizeAllZero(t *testing.T) {
	h := make([]complex128, 8)
	q := Quantize(h, 8)
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero input quantized to nonzero")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := &Report{
		Client: 1, RxAnt: 0,
		TxAnts: []int{3, 4},
		H:      [][]complex128{{1, 2}, {3, 4}},
	}
	c := r.Clone()
	c.H[0][0] = 99
	c.TxAnts[0] = 99
	if r.H[0][0] != 1 || r.TxAnts[0] != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestQuantizeReportInPlace(t *testing.T) {
	src := rng.New(3)
	r := &Report{H: [][]complex128{src.AddComplexNormal(make([]complex128, 16), 1)}}
	orig := append([]complex128(nil), r.H[0]...)
	QuantizeReport(r, 4)
	if MaxQuantError(orig, r.H[0]) == 0 {
		t.Fatal("QuantizeReport had no effect at 4 bits")
	}
}
