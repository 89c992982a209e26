package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	a1 := New(7).Split(1)
	a2 := New(7).Split(1)
	b := New(7).Split(2)
	same, diff := 0, 0
	for i := 0; i < 50; i++ {
		x1, x2, y := a1.Float64(), a2.Float64(), b.Float64()
		if x1 == x2 {
			same++
		}
		if x1 != y {
			diff++
		}
	}
	if same != 50 {
		t.Fatalf("Split(1) not deterministic: %d/50 equal", same)
	}
	if diff < 45 {
		t.Fatalf("Split(1) and Split(2) look correlated: only %d/50 differ", diff)
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(3) // b never splits
	// First Split consumes the hidden base draw, so compare a fresh pair
	// that both split.
	_ = b.Split(4)
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split changed parent stream inconsistently")
		}
	}
}

func TestComplexNormalStats(t *testing.T) {
	s := New(1)
	const n = 200000
	var sumRe, sumIm, sumP float64
	for i := 0; i < n; i++ {
		v := s.ComplexNormal(2.0)
		sumRe += real(v)
		sumIm += imag(v)
		sumP += real(v)*real(v) + imag(v)*imag(v)
	}
	if m := sumRe / n; math.Abs(m) > 0.02 {
		t.Fatalf("mean(re) = %v", m)
	}
	if m := sumIm / n; math.Abs(m) > 0.02 {
		t.Fatalf("mean(im) = %v", m)
	}
	if p := sumP / n; math.Abs(p-2.0) > 0.05 {
		t.Fatalf("E|x|² = %v, want 2.0", p)
	}
}

func TestAddComplexNormal(t *testing.T) {
	s := New(2)
	v := s.AddComplexNormal(make([]complex128, 50000), 1.0)
	var p float64
	for _, x := range v {
		p += real(x)*real(x) + imag(x)*imag(x)
	}
	if got := p / float64(len(v)); math.Abs(got-1.0) > 0.05 {
		t.Fatalf("vec power = %v", got)
	}
}

func TestRayleighMean(t *testing.T) {
	s := New(3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Rayleigh(1.0)
	}
	want := math.Sqrt(math.Pi / 2)
	if got := sum / n; math.Abs(got-want) > 0.02 {
		t.Fatalf("Rayleigh mean = %v, want %v", got, want)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestPhaseUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		p := s.PhaseUniform()
		if p < -math.Pi || p >= math.Pi {
			t.Fatalf("phase out of range: %v", p)
		}
	}
}

func TestBits(t *testing.T) {
	s := New(6)
	b := s.Bits(make([]byte, 10000))
	ones := 0
	for _, v := range b {
		if v > 1 {
			t.Fatalf("Bits produced %d", v)
		}
		ones += int(v)
	}
	if ones < 4700 || ones > 5300 {
		t.Fatalf("Bits bias: %d/10000 ones", ones)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) rate = %v", f)
	}
}

func TestPerm(t *testing.T) {
	s := New(10)
	p := s.Perm(16)
	seen := make([]bool, 16)
	for _, v := range p {
		if v < 0 || v >= 16 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(3.5)
		if v < 0 {
			t.Fatalf("Exp drew negative %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-3.5) > 0.05 {
		t.Fatalf("Exp mean = %v, want 3.5", got)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("degenerate Exp mean must return 0")
	}
}

func TestParetoBoundsAndMean(t *testing.T) {
	s := New(12)
	const (
		alpha = 1.2
		xm    = 1000.0
		hi    = 100000.0
		n     = 200000
	)
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Pareto(alpha, xm, hi)
		if v < xm || v > hi {
			t.Fatalf("Pareto draw %v outside [%v, %v]", v, xm, hi)
		}
		sum += v
	}
	want := BoundedParetoMean(alpha, xm, hi)
	if got := sum / n; math.Abs(got-want)/want > 0.05 {
		t.Fatalf("Pareto mean = %v, want %v (±5%%)", got, want)
	}
	if s.Pareto(0, xm, hi) != xm || s.Pareto(alpha, xm, xm) != xm {
		t.Fatal("degenerate Pareto must collapse to xm")
	}
}

func TestBoundedParetoMeanAlphaOne(t *testing.T) {
	// The α→1 closed form must join continuously with the general branch.
	general := BoundedParetoMean(1.001, 10, 1000)
	atOne := BoundedParetoMean(1, 10, 1000)
	if math.Abs(general-atOne)/atOne > 0.02 {
		t.Fatalf("α=1 branch discontinuous: %v vs %v", atOne, general)
	}
}

// TestSplitIntoMatchesSplit reseeds a Source that has already drawn
// normals and carried Bytes, and checks it then draws exactly what a fresh
// Split child draws — including its own later splits.
func TestSplitIntoMatchesSplit(t *testing.T) {
	parent := New(21)
	dst := parent.Split(99)
	dst.Norm()
	dst.Bytes(make([]byte, 3)) // leave a Bytes carry behind
	_ = dst.Split(5)           // and a split base
	for _, id := range []uint64{1, 0xE701, 1 << 40} {
		want := New(21).Split(id)
		got := parent.SplitInto(dst, id)
		if got != dst {
			t.Fatal("SplitInto did not return dst")
		}
		wb, gb := want.Bytes(make([]byte, 11)), got.Bytes(make([]byte, 11))
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("id %#x: byte %d = %d, Split draws %d", id, i, gb[i], wb[i])
			}
		}
		for i := 0; i < 50; i++ {
			if w, g := want.Norm(), got.Norm(); w != g {
				t.Fatalf("id %#x: draw %d = %v, Split draws %v", id, i, g, w)
			}
		}
		if w, g := want.Split(3).Float64(), got.Split(3).Float64(); w != g {
			t.Fatalf("id %#x: grandchild draws %v, Split's draws %v", id, g, w)
		}
	}
}

// TestAddComplexNormalMatchesPerSample holds AddComplexNormal to a loop
// adding ComplexNormal to each element: the same bits in every element,
// from a dst with signed zeros and infinities in it, and the same next
// draw after it.
func TestAddComplexNormalMatchesPerSample(t *testing.T) {
	base := []complex128{0, complex(math.Copysign(0, -1), 1), complex(math.Inf(1), -2), 3.5 - 1i}
	for _, variance := range []float64{0, 1e-9, 0.5, 2, 1e6} {
		for n := 0; n <= 40; n++ {
			want, got := make([]complex128, n), make([]complex128, n)
			for i := range want {
				want[i] = base[i%len(base)]
				got[i] = want[i]
			}
			ref, s := New(int64(n)), New(int64(n))
			for i := range want {
				want[i] += ref.ComplexNormal(variance)
			}
			s.AddComplexNormal(got, variance)
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("variance %v n=%d: element %d is %v, the per-sample loop gives %v", variance, n, i, got[i], want[i])
				}
			}
			if a, b := s.Float64(), ref.Float64(); a != b {
				t.Fatalf("variance %v n=%d: next draw %v, after the per-sample loop %v", variance, n, a, b)
			}
		}
	}
}

// schrageSeedrand is the Lehmer step in math/rand's Schrage factorization,
// the oracle for seedrand.
func schrageSeedrand(x int32) int32 {
	const (
		a  = 48271
		q  = 44488
		rr = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - rr*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandMatchesSchrage holds the division-free Lehmer step to the
// Schrage factorization: on the ends of the domain and around Schrage's
// q, on both sides of every x where 48271·x crosses a multiple of the
// modulus, on two million strided values, and, without -short, on every
// x in [1, 2³¹−1).
func TestSeedrandMatchesSchrage(t *testing.T) {
	check := func(x int32) {
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, Schrage %d", x, got, want)
		}
	}
	for _, x := range []int32{1, 2, 3, 44487, 44488, 44489, 88976, 89482311, 1 << 30, int32max - 2, int32max - 1} {
		check(x)
	}
	// Where 48271·x crosses a multiple of the modulus, the result wraps
	// to near 0.
	for k := int64(1); k < 48271; k++ {
		if x := k * int32max / 48271; x > 0 {
			check(int32(x))
			check(int32(x + 1))
		}
	}
	for x := int64(1); x < int32max; x += 997 {
		check(int32(x))
	}
	if testing.Short() {
		return
	}
	for x := int32(1); x < int32max; x++ {
		if seedrand(x) != schrageSeedrand(x) {
			check(x)
		}
	}
}
