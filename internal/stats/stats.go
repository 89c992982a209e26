// Package stats provides the small descriptive-statistics kit the
// experiment harness uses: percentiles, CDFs, means and fairness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sum returns the sum of xs in index order, or 0 for empty input.
func Sum(xs []float64) float64 {
	var acc float64
	for _, x := range xs {
		acc += x
	}
	return acc
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. It returns NaN on empty input:
// there is no order statistic to report, and NaN propagates visibly
// instead of crashing an experiment run.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentiles returns the requested percentiles of xs with a single sort —
// the per-client reporting path asks for several quantiles of the same
// latency series, and re-sorting per call is quadratic across clients.
// Empty input yields NaN for every requested percentile.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

// percentileSorted is Percentile over an already sorted slice.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// JainFairness returns Jain's fairness index (Σx)² / (n·Σx²) over
// non-negative allocations: 1 when every client gets the same share,
// 1/n when one client gets everything. Empty or all-zero input returns 0
// (no allocation to be fair about).
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the q-quantile (0–1), or NaN for an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return Percentile(c.sorted, q*100)
}

// Points returns n evenly spaced (value, fraction) pairs suitable for
// plotting or printing the CDF.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		out = append(out, [2]float64{Percentile(c.sorted, q*100), q})
	}
	return out
}

// String renders a compact summary.
func (c *CDF) String() string {
	if len(c.sorted) == 0 {
		return "CDF{empty}"
	}
	return fmt.Sprintf("CDF{n=%d p10=%.3g p50=%.3g p90=%.3g}",
		c.N(), c.Quantile(0.1), c.Quantile(0.5), c.Quantile(0.9))
}
