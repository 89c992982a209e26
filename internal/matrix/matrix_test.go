package matrix

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, n int) *M {
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randomMatrix(r, 4)
	if !a.Mul(Identity(4)).Equalish(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Identity(4).Mul(a).Equalish(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2i}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1i, 0}})
	got := a.Mul(b)
	want := FromRows([][]complex128{{-2, 1}, {4i, 3}})
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("Mul =\n%v want\n%v", got, want)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomMatrix(r, 5)
	x := make([]complex128, 5)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	xm := New(5, 1)
	copy(xm.Data, x)
	want := a.Mul(xm)
	got := a.MulVec(x)
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for n := 1; n <= 12; n++ {
		a := randomMatrix(r, n)
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !a.Mul(inv).Equalish(Identity(n), 1e-8) {
			t.Fatalf("n=%d: A·A⁻¹ != I:\n%v", n, a.Mul(inv))
		}
		if !inv.Mul(a).Equalish(Identity(n), 1e-8) {
			t.Fatalf("n=%d: A⁻¹·A != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := z.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix err = %v", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Fatal("no error for non-square Inverse")
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := FromRows([][]complex128{{0, 1}, {1, 0}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Equalish(a, 1e-12) {
		t.Fatalf("inverse of permutation = %v", inv)
	}
}

func TestHermitian(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3i, 4 - 2i}})
	h := a.H()
	if h.At(0, 1) != -3i || h.At(1, 0) != 2 || h.At(0, 0) != 1-1i {
		t.Fatalf("H =\n%v", h)
	}
	if !a.H().H().Equalish(a, 0) {
		t.Fatal("Hᴴ != A")
	}
}

func TestRowColClone(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	if got := a.Col(1); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Col = %v", got)
	}
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	a.Row(0)[0] = 7
	if a.At(0, 0) != 7 {
		t.Fatal("Row should share storage")
	}
}

// Property: (AB)ᴴ = BᴴAᴴ for random matrices.
func TestQuickHermitianOfProduct(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(5)
		a, b := randomMatrix(rr, n), randomMatrix(rr, n)
		return a.Mul(b).H().Equalish(b.H().Mul(a.H()), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: inverse of a product is the reversed product of inverses.
func TestQuickInverseOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(4)
		a, b := randomMatrix(rr, n), randomMatrix(rr, n)
		ab, err1 := a.Mul(b).Inverse()
		ai, err2 := a.Inverse()
		bi, err3 := b.Inverse()
		if err1 != nil || err2 != nil || err3 != nil {
			return true // singular draw: vacuous
		}
		return ab.Equalish(bi.Mul(ai), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInverse8x8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul10x10(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randomMatrix(r, 10)
	y := randomMatrix(r, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

// TestInverseIntoMatchesInverse reuses one dirty pair of buffers across
// matrices of one size and checks every result is bit-equal to Inverse,
// m is left unchanged, and the errors match Inverse's.
func TestInverseIntoMatchesInverse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 5
	inv, scratch := New(n, n), New(n, n)
	for i := range inv.Data {
		inv.Data[i] = complex(r.NormFloat64(), 1)
		scratch.Data[i] = complex(-1, r.NormFloat64())
	}
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(r, n)
		// Planted exact zeros exercise the elimination's zero-factor skip
		// and, on the diagonal, the pivot search.
		m.Set(trial%n, (trial+1)%n, 0)
		m.Set(trial%n, trial%n, 0)
		orig := m.Clone()
		want, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InverseInto(inv, scratch); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if inv.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: InverseInto[%d] = %v, Inverse = %v", trial, i, inv.Data[i], want.Data[i])
			}
		}
		for i := range orig.Data {
			if m.Data[i] != orig.Data[i] {
				t.Fatalf("trial %d: InverseInto modified its receiver", trial)
			}
		}
	}

	singular := FromRows([][]complex128{{1, 2}, {2, 4}})
	_, wantErr := singular.Inverse()
	if err := singular.InverseInto(New(2, 2), New(2, 2)); !errors.Is(err, ErrSingular) || err != wantErr {
		t.Fatalf("singular: InverseInto err = %v, Inverse err = %v", err, wantErr)
	}
	if err := New(3, 3).InverseInto(New(3, 3), New(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: InverseInto err = %v, want ErrSingular", err)
	}
	wide := New(2, 3)
	_, wantErr = wide.Inverse()
	err := wide.InverseInto(New(2, 2), New(2, 2))
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("non-square: InverseInto err = %v, Inverse err = %v", err, wantErr)
	}
	if err := randomMatrix(r, 3).InverseInto(New(2, 2), New(3, 3)); err == nil {
		t.Fatal("no error for a mis-sized destination")
	}
}
