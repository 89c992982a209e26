package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestDivUnitMatchesDivision holds divUnit to Go's complex division, bit
// for bit, for every pairing of special and random parts of n with the
// four unit references ±1 ± 0i and with a few other divisors it must hand
// to the division.
func TestDivUnitMatchesDivision(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	parts := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff8_0000_dead_beef), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	for range 20 {
		parts = append(parts, r.NormFloat64(), 1e300*r.NormFloat64())
	}
	divisors := []complex128{
		complex(1, 0), complex(-1, 0), complex(1, negZero), complex(-1, negZero),
		0, complex(0, 1), complex(2, 0), complex(1, 1e-300), complex(math.Inf(1), 0), complex(math.NaN(), 0),
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range divisors {
		for _, re := range parts {
			for _, im := range parts {
				n := complex(re, im)
				got, want := divUnit(n, m), n/m
				if !same(real(got), real(want)) || !same(imag(got), imag(want)) {
					t.Fatalf("divUnit(%v, %v) = %v (%#x, %#x), division gives %v (%#x, %#x)", n, m,
						got, math.Float64bits(real(got)), math.Float64bits(imag(got)),
						want, math.Float64bits(real(want)), math.Float64bits(imag(want)))
				}
			}
		}
	}
}
