package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Median([]float64{7}); got != 7 {
		t.Fatalf("Median single = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got := Percentiles(xs, 0, 50, 100, 25)
	want := []float64{1, 3, 5, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Must agree with the one-shot Percentile on every requested point.
	for _, p := range []float64{0, 10, 33, 50, 90, 100} {
		if one, many := Percentile(xs, p), Percentiles(xs, p)[0]; math.Abs(one-many) > 1e-12 {
			t.Errorf("P%v: Percentile=%v Percentiles=%v", p, one, many)
		}
	}
	for _, v := range Percentiles(nil, 50, 95) {
		if !math.IsNaN(v) {
			t.Fatalf("empty input percentile = %v, want NaN", v)
		}
	}
	// Input must stay unmodified.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatal("Percentiles sorted its input in place")
	}
}

func TestJainFairness(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 10, 10, 10}, 1},                // perfect fairness
		{[]float64{1, 0, 0, 0}, 0.25},                 // one client hogs: 1/n
		{[]float64{4, 2}, (6 * 6) / (2.0 * (16 + 4))}, // hand-computed
		{nil, 0},
		{[]float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := JainFairness(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainFairness(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Index is scale invariant.
	a := JainFairness([]float64{1, 2, 3})
	b := JainFairness([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("not scale invariant: %v vs %v", a, b)
	}
}

func TestPercentileUnsortedInputUnmodified(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, 50); got != 2 {
		t.Fatalf("P50 = %v", got)
	}
	if xs[0] != 3 {
		t.Fatal("Percentile mutated input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if !strings.Contains(c.String(), "n=4") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0][1] != 0 || pts[4][1] != 1 {
		t.Fatalf("fraction endpoints: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] {
			t.Fatal("points not monotone")
		}
	}
}

// Property: quantiles are monotone and bounded by the sample range.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
