package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"megamimo/internal/matrix"
)

// randomMeasurement builds a synthetic measurement with iid Gaussian
// channel entries on nbins bins.
func randomMeasurement(rng *rand.Rand, nbins, streams, txAnts int) *Measurement {
	m := &Measurement{
		Bins: make([]int, nbins),
		H:    make([]*matrix.M, nbins),
	}
	for b := 0; b < nbins; b++ {
		m.Bins[b] = b + 1
		h := matrix.New(streams, txAnts)
		for i := range h.Data {
			h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		m.H[b] = h
	}
	return m
}

// perturb returns a copy of m with every channel entry nudged by a
// Gaussian delta of the given scale — the "small per-round drift" the
// incremental precoder is built for.
func perturb(rng *rand.Rand, m *Measurement, scale float64) *Measurement {
	out := &Measurement{Bins: m.Bins, H: make([]*matrix.M, len(m.H))}
	for b, h := range m.H {
		nh := h.Clone()
		for i := range nh.Data {
			nh.Data[i] += complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		}
		out.H[b] = nh
	}
	return out
}

// maxWeightDiff returns the largest entry-wise |a-b| across all bins.
func maxWeightDiff(t *testing.T, a, b *Precoder) float64 {
	t.Helper()
	if len(a.W) != len(b.W) {
		t.Fatalf("precoder bin counts differ: %d vs %d", len(a.W), len(b.W))
	}
	var worst float64
	for i := range a.W {
		wa, wb := a.W[i], b.W[i]
		if len(wa.Data) != len(wb.Data) {
			t.Fatalf("bin %d weight shapes differ", i)
		}
		for k := range wa.Data {
			d := wa.Data[k] - wb.Data[k]
			if m := real(d)*real(d) + imag(d)*imag(d); m > worst*worst {
				worst = math.Sqrt(m)
			}
		}
	}
	return worst
}

// referenceZF is the oracle the cache is held to: a fresh pseudo-inverse
// of every bin from matrix Mul/H/Inverse alone, power-normalized like the
// cache's precoder. A square H takes the left form (HᴴH+λI)⁻¹Hᴴ, which
// rounds differently from the cache's right form; a wide H takes the right
// form Hᴴ(HHᴴ+λI)⁻¹, since HᴴH is singular there at λ = 0.
func referenceZF(t *testing.T, m *Measurement, lambda float64) *Precoder {
	t.Helper()
	streams, txAnts := m.H[0].Rows, m.H[0].Cols
	p := &Precoder{Bins: m.Bins, W: make([]*matrix.M, len(m.H)), Streams: streams, TxAnts: txAnts}
	for i, h := range m.H {
		hh := h.H()
		left := streams == txAnts
		gram := h.Mul(hh)
		if left {
			gram = hh.Mul(h)
		}
		for d := 0; d < gram.Rows; d++ {
			gram.Set(d, d, gram.At(d, d)+complex(lambda, 0))
		}
		gi, err := gram.Inverse()
		if err != nil {
			t.Fatalf("reference ZF, bin %d: %v", m.Bins[i], err)
		}
		if left {
			p.W[i] = gi.Mul(hh)
		} else {
			p.W[i] = hh.Mul(gi)
		}
	}
	if err := p.normalizePower(); err != nil {
		t.Fatalf("reference ZF: %v", err)
	}
	return p
}

// TestZFCacheMatchesFullReinversion is the Sherman–Morrison property test:
// across a sequence of random small channel deltas, the incrementally
// updated precoder matches a full re-inversion (referenceZF) within 1e-9.
func TestZFCacheMatchesFullReinversion(t *testing.T) {
	for _, shape := range []struct{ streams, txAnts int }{{3, 3}, {3, 5}, {4, 8}} {
		rng := rand.New(rand.NewSource(7))
		c := NewZFCache()
		m := randomMeasurement(rng, 12, shape.streams, shape.txAnts)
		const lambda = 0.01
		if _, err := c.Compute(m, lambda); err != nil {
			t.Fatalf("%dx%d: initial compute: %v", shape.streams, shape.txAnts, err)
		}
		for round := 0; round < 20; round++ {
			m = perturb(rng, m, 0.01)
			inc, err := c.Compute(m, lambda)
			if err != nil {
				t.Fatalf("%dx%d round %d: incremental compute: %v", shape.streams, shape.txAnts, round, err)
			}
			if d := maxWeightDiff(t, inc, referenceZF(t, m, lambda)); d > 1e-9 {
				t.Fatalf("%dx%d round %d: incremental precoder drifted %.3g from full re-inversion", shape.streams, shape.txAnts, round, d)
			}
		}
		e := c.entries[zfFullMask]
		if e.incrementalBins == 0 {
			t.Fatalf("%dx%d: no bin ever took the incremental path", shape.streams, shape.txAnts)
		}
		// The initial compute pays one full inversion per bin; the 20 small
		// perturbation rounds should almost all ride rank-1 updates.
		if e.fullInversions > len(m.H)+e.incrementalBins/4 {
			t.Fatalf("%dx%d: %d full inversions vs %d incremental bins — cache not amortizing", shape.streams, shape.txAnts, e.fullInversions, e.incrementalBins)
		}
	}
}

// TestZFCacheLargeDriftFallsBack forces the drift gate: replacing the
// channel wholesale must re-invert every bin rather than trust
// Sherman–Morrison far outside its small-delta regime.
func TestZFCacheLargeDriftFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewZFCache()
	m := randomMeasurement(rng, 8, 3, 5)
	if _, err := c.Compute(m, 0); err != nil {
		t.Fatal(err)
	}
	before := c.entries[zfFullMask].fullInversions
	m2 := randomMeasurement(rng, 8, 3, 5) // a completely new draw
	p, err := c.Compute(m2, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := c.entries[zfFullMask]
	if e.fullInversions != before+len(m2.H) {
		t.Fatalf("wholesale channel change re-inverted %d bins, want all %d", e.fullInversions-before, len(m2.H))
	}
	if d := maxWeightDiff(t, p, referenceZF(t, m2, 0)); d > 1e-12 {
		t.Fatalf("fallback precoder differs from the reference by %.3g", d)
	}
}

// TestShermanMorrisonConditioningFallback drives the update kernel into a
// denominator below zfCondFloor — a delta that steers the Gram matrix
// toward singularity — and checks it refuses and leaves the inverse
// untouched.
func TestShermanMorrisonConditioningFallback(t *testing.T) {
	// Rows (1,0) and (1,eps) are nearly parallel; moving row 1 to
	// (1, eps·kappa) multiplies det(G) by ~kappa², so the Sherman–Morrison
	// denominator lands at ~kappa — far below the conditioning floor.
	const eps, kappa = 1e-2, 1e-8
	hOld := matrix.New(2, 2)
	hOld.Set(0, 0, 1)
	hOld.Set(1, 0, 1)
	hOld.Set(1, 1, complex(eps, 0))
	hNew := hOld.Clone()
	hNew.Set(1, 1, complex(eps*kappa, 0))

	g := matrix.New(2, 2)
	gramInto(g, hOld, 0)
	gi, err := g.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := gi.Clone()
	updates := 0
	if NewZFCache().shermanMorrison(gi, hOld, hNew, &updates) {
		t.Fatal("near-singular update was accepted; want conditioning fallback")
	}
	if updates != 0 {
		t.Fatalf("refused update still counted %d corrections", updates)
	}
	for i := range gi.Data {
		if gi.Data[i] != snapshot.Data[i] {
			t.Fatal("refused update modified the cached inverse")
		}
	}
	// Sanity: the drift gate alone would have let this delta through.
	var driftSq, normSq float64
	for i, v := range hOld.Data {
		d := hNew.Data[i] - v
		driftSq += real(d)*real(d) + imag(d)*imag(d)
		normSq += real(v)*real(v) + imag(v)*imag(v)
	}
	if driftSq > zfDriftLimit*zfDriftLimit*normSq {
		t.Fatal("test delta trips the drift gate; it no longer exercises the conditioning floor")
	}
}

// TestZFCacheMaskedEntries exercises the unified degraded-weight path: the
// same cache serves per-mask rebuilds and keeps them incremental across
// measurements.
func TestZFCacheMaskedEntries(t *testing.T) {
	cfg := DefaultConfig(4, 4, 18, 24)
	cfg.Seed = 3
	cfg.WellConditioned = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	if err := n.CrashAP(2); err != nil {
		t.Fatal(err)
	}
	mask, full := n.participationMask()
	if mask == full {
		t.Fatal("crash did not change the participation mask")
	}
	mw1, err := n.weightsForMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	// Same measurement, same mask: the cached maskedWeights comes back.
	mw2, err := n.weightsForMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	if mw1 != mw2 {
		t.Fatal("repeated degraded lookup rebuilt instead of hitting the cache")
	}
	if e := n.zf.entries[mask]; e == nil {
		t.Fatal("degraded rebuild did not land in the unified ZF cache")
	}
	// A fresh measurement invalidates the built weights but keeps the
	// entry, so the rebuild can update incrementally. (Measuring needs
	// every AP on the air, so bounce the crash around it.)
	if err := n.RestartAP(2); err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if err := n.CrashAP(2); err != nil {
		t.Fatal(err)
	}
	mw3, err := n.weightsForMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	if mw3 == mw1 {
		t.Fatal("degraded weights not rebuilt after a fresh measurement")
	}
}

// TestDirectProductsMatchMul pins gramInto and precoderFromInverses, which
// never form Hᴴ, bit for bit to the h.Mul(h.H()) and h.H().Mul(gi)
// products they replace, on random matrices with planted exact zeros
// (including a negative zero) that Mul's zero-factor skip sees.
func TestDirectProductsMatchMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := complex(math.Copysign(0, -1), 0)
	for _, shape := range []struct{ streams, txAnts int }{{2, 2}, {3, 3}, {3, 5}, {4, 8}} {
		m := randomMeasurement(rng, 6, shape.streams, shape.txAnts)
		gi := randomMeasurement(rng, len(m.H), shape.streams, shape.streams).H
		for b, h := range m.H {
			for r := 0; r < h.Rows; r++ {
				h.Set(r, b%h.Cols, 0) // a silent tx antenna
			}
			h.Data[(5*b+1)%len(h.Data)] = negZero
			gi[b].Data[(3*b)%len(gi[b].Data)] = 0
		}
		const lambda = 0.25
		g := matrix.New(shape.streams, shape.streams)
		for b, h := range m.H {
			for i := range g.Data {
				g.Data[i] = complex(float64(i), -1) // stale contents
			}
			gramInto(g, h, lambda)
			want := h.Mul(h.H())
			for i := 0; i < want.Rows; i++ {
				want.Set(i, i, want.At(i, i)+complex(lambda, 0))
			}
			for i := range want.Data {
				if math.Float64bits(real(g.Data[i])) != math.Float64bits(real(want.Data[i])) ||
					math.Float64bits(imag(g.Data[i])) != math.Float64bits(imag(want.Data[i])) {
					t.Fatalf("%dx%d bin %d: gram[%d] = %v, Mul gives %v", shape.streams, shape.txAnts, b, i, g.Data[i], want.Data[i])
				}
			}
		}
		p, err := precoderFromInverses(m, gi)
		if err != nil {
			t.Fatal(err)
		}
		s := complex(p.PowerScale, 0)
		for b, h := range m.H {
			want := h.H().Mul(gi[b])
			for i := range want.Data {
				w := want.Data[i] * s
				if math.Float64bits(real(p.W[b].Data[i])) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(p.W[b].Data[i])) != math.Float64bits(imag(w)) {
					t.Fatalf("%dx%d bin %d: W[%d] = %v, Mul gives %v", shape.streams, shape.txAnts, b, i, p.W[b].Data[i], w)
				}
			}
		}
	}
}

// TestZFCacheSurvivesSingularBin makes one bin's Gram matrix singular, on
// a cold cache and on a warm one, and checks that the failed Compute
// reports ErrSingular and leaves the cache usable: the next good
// measurement still matches the reference.
func TestZFCacheSurvivesSingularBin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, warm := range []bool{false, true} {
		for _, bin := range []int{0, 5} {
			c := NewZFCache()
			m := randomMeasurement(rng, 8, 3, 5)
			if warm {
				if _, err := c.Compute(m, 0); err != nil {
					t.Fatal(err)
				}
			}
			bad := perturb(rng, m, 0)
			bad.H[bin] = matrix.New(3, 5) // a zero channel: G = 0 at λ = 0
			if _, err := c.Compute(bad, 0); !errors.Is(err, matrix.ErrSingular) {
				t.Fatalf("warm=%v bin %d: err = %v, want ErrSingular", warm, bin, err)
			}
			next := perturb(rng, m, 0.01)
			got, err := c.Compute(next, 0)
			if err != nil {
				t.Fatalf("warm=%v bin %d: compute after the singular bin: %v", warm, bin, err)
			}
			if d := maxWeightDiff(t, got, referenceZF(t, next, 0)); d > 1e-9 {
				t.Fatalf("warm=%v bin %d: precoder after the singular bin differs from the reference by %.3g", warm, bin, d)
			}
		}
	}
}
