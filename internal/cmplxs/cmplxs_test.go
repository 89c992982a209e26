package cmplxs

import (
	"encoding/json"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"megamimo/internal/units"
)

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < 1e-9 }

func energy(a []complex128) float64 {
	var e float64
	for _, v := range a {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

func TestAdd(t *testing.T) {
	a := []complex128{1 + 2i, 3 - 1i}
	b := []complex128{2 - 2i, -1 + 4i}
	dst := make([]complex128, 2)
	Add(dst, a, b)
	if !approx(dst[0], 3+0i) || !approx(dst[1], 2+3i) {
		t.Fatalf("Add = %v", dst)
	}
}

func TestAddAliasesDestination(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{10, 20, 30}
	Add(a, a, b)
	if a[2] != 33 {
		t.Fatalf("aliased Add = %v", a)
	}
}

func TestScale(t *testing.T) {
	a := []complex128{1, 1i}
	dst := make([]complex128, 2)
	Scale(dst, a, 2i)
	if !approx(dst[0], 2i) || !approx(dst[1], -2) {
		t.Fatalf("Scale = %v", dst)
	}
}

func TestRotateMatchesExplicitExponential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 4096
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	phase0, step := units.Radians(0.3), units.RadPerSample(0.001)
	dst := make([]complex128, n)
	Rotate(dst, a, phase0, step)
	for i := 0; i < n; i += 257 {
		want := a[i] * cmplx.Exp(complex(0, float64(phase0)+float64(i)*float64(step)))
		if cmplx.Abs(dst[i]-want) > 1e-8 {
			t.Fatalf("Rotate[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestRotatePreservesEnergy(t *testing.T) {
	a := []complex128{1 + 2i, -1i, 3, 0.5 + 0.5i}
	dst := make([]complex128, len(a))
	Rotate(dst, a, 1.234, 0.777)
	if math.Abs(energy(dst)-energy(a)) > 1e-9 {
		t.Fatalf("Rotate changed energy: %v -> %v", energy(a), energy(dst))
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-2.5 * math.Pi, -0.5 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapPhase(units.Radians(c.in)); math.Abs(float64(got)-c.want) > 1e-12 {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPhaseDiff(t *testing.T) {
	a := Expi(2.0)
	b := Expi(1.5)
	if got := PhaseDiff(a, b); units.Abs(got-0.5) > 1e-12 {
		t.Fatalf("PhaseDiff = %v, want 0.5", got)
	}
	// Wraps across the branch cut.
	a, b = Expi(3.0), Expi(-3.0)
	if got := PhaseDiff(a, b); units.Abs(got-units.Radians(6.0-2*math.Pi)) > 1e-12 {
		t.Fatalf("PhaseDiff wrap = %v", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 10, 25.7} {
		if got := DB(FromDB(units.Decibels(db))); math.Abs(float64(got)-db) > 1e-9 {
			t.Fatalf("DB(FromDB(%v)) = %v", db, got)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Add(make([]complex128, 1), make([]complex128, 2), make([]complex128, 2))
}

// Property: energy is invariant under rotation.
func TestQuickEnergyInvariants(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		if n == 0 {
			return true
		}
		a := make([]complex128, n)
		for i := 0; i < n; i++ {
			// Clamp to keep float error bounded.
			a[i] = complex(math.Mod(re[i], 1e3), math.Mod(im[i], 1e3))
		}
		e := energy(a)
		r := make([]complex128, n)
		Rotate(r, a, 0.7, 0.1)
		return math.Abs(energy(r)-e) < 1e-6*(1+e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WrapPhase is idempotent and stays in (-π, π].
func TestQuickWrapPhase(t *testing.T) {
	f := func(p float64) bool {
		if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 1e6 {
			return true
		}
		w := WrapPhase(units.Radians(p))
		return w > -math.Pi-1e-12 && w <= math.Pi+1e-12 && units.Abs(WrapPhase(w)-w) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRotate(b *testing.B) {
	a := make([]complex128, 8192)
	for i := range a {
		a[i] = complex(float64(i), 1)
	}
	dst := make([]complex128, len(a))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Rotate(dst, a, 0.1, 0.001)
	}
}

// TestInterleavedRoundTrip locks the complex JSON encoding, including
// exact float64 round-tripping through JSON.
func TestInterleavedRoundTrip(t *testing.T) {
	in := Interleaved{complex(1.0/3.0, -2.718281828459045), complex(0, 1e-300), complex(-0, 42)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Interleaved
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v != %v", out, in)
	}
	if err := json.Unmarshal([]byte(`[1,2,3]`), &out); err == nil {
		t.Fatalf("odd-length scalar list accepted")
	}
}
