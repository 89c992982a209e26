package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"megamimo/internal/matrix"
)

// This file holds the one zero-forcing implementation, and makes it
// incremental. Between consecutive measurements of the same network the
// channel rows drift by small deltas (oscillator phase, slow fading), so
// the Gram inverse of the previous round is one or two rank-1
// Sherman–Morrison updates away from the new one. A ZFCache keeps the
// per-bin inverses — for the full array and for every degraded
// participation mask — and updates them in place, falling back to a full
// re-inversion whenever the drift is large, the update count exceeds its
// error budget, or a Sherman–Morrison denominator signals that the update
// grazes singularity.

const (
	// zfMaxUpdates bounds the rank-1 updates accumulated per bin before a
	// full re-inversion refreshes the factorization; Sherman–Morrison error
	// compounds multiplicatively, so the budget keeps the incremental
	// inverse within a few ULPs of the direct one.
	zfMaxUpdates = 64
	// zfDriftLimit is the relative per-bin channel drift ‖ΔH‖/‖H‖ beyond
	// which the change is no longer an "update": a full inversion is both
	// cheaper than row-by-row corrections and numerically safer.
	zfDriftLimit = 0.25
	// zfCondFloor guards each Sherman–Morrison denominator 1 + yᴴG⁻¹x.
	// A magnitude below the floor means the updated Gram is close to
	// singular through this factorization path; the bin re-inverts fully.
	zfCondFloor = 1e-6
)

// zfEntry caches one participation mask's factorization state across
// measurements.
type zfEntry struct {
	// lambdaBits is the regularizer the inverses were built with, compared
	// bit-exactly: any change in λ invalidates the factorization.
	lambdaBits uint64
	h          []*matrix.M // per-bin channel the inverses correspond to
	gi         []*matrix.M // per-bin (H·Hᴴ + λI)⁻¹
	updates    []int       // rank-1 updates accumulated per bin
	pre        *Precoder   // precoder built from gi
	mw         *maskedWeights
	// builtFor identifies the measurement pre was assembled from, so
	// repeated precodes of an unchanged measurement are free. For masked
	// entries it points at the derived sub-measurement; src tracks the
	// network-level measurement that sub was extracted from.
	builtFor *Measurement
	src      *Measurement
	// fullInversions / incrementalBins count how bins were refreshed
	// (diagnostics and tests).
	fullInversions  int
	incrementalBins int
}

// ZFCache holds incremental zero-forcing state for one network: one entry
// per participation mask (zfFullMask for the whole array), serving both the
// steady-state precoder and the N−1 degraded-round rebuilds. It also owns the
// scratch every refresh reuses: the Gram matrix, the inverse and
// elimination workspaces of a full inversion, and the Sherman–Morrison
// working copies and row vectors.
type ZFCache struct {
	entries map[uint64]*zfEntry

	gram, inv, elim *matrix.M
	work, cur       *matrix.M
	vecs            []complex128
}

// zfFullMask keys the full-participation entry.
const zfFullMask = ^uint64(0)

// NewZFCache returns an empty cache.
func NewZFCache() *ZFCache {
	return &ZFCache{entries: make(map[uint64]*zfEntry)}
}

// Compute returns the zero-forcing precoder for m, reusing the cached
// per-bin Gram inverses when the channel moved only slightly since the
// previous call. The result matches a full re-inversion of every bin to
// floating-point accuracy (the property tests bound the difference at 1e-9).
func (c *ZFCache) Compute(m *Measurement, lambda float64) (*Precoder, error) {
	e, err := c.entry(zfFullMask, m, lambda)
	if err != nil {
		return nil, err
	}
	return e.pre, nil
}

// Precode computes the zero-forcing precoder W = k·H⁻¹ (pseudo-inverse when
// H is not square) for the current measurement through the network's
// incremental cache and installs it on every AP. lambda regularizes the
// inverse: 0 is pure ZF, the stream noise variance gives an MMSE-flavored
// precoder useful at low SNR. The first call (and any call after a large
// channel change) pays the full per-bin inversions, while steady-state
// re-measurements cost two rank-1 updates per changed channel row.
func (n *Network) Precode(lambda float64) (*Precoder, error) {
	p, err := n.zf.Compute(n.Msmt, lambda)
	if err != nil {
		return nil, err
	}
	n.setPrecoder(p)
	return p, nil
}

// entry returns the up-to-date cache entry for a mask, refreshing the
// inverses (incrementally where possible) and the derived precoder.
func (c *ZFCache) entry(mask uint64, m *Measurement, lambda float64) (*zfEntry, error) {
	if m == nil || len(m.H) == 0 {
		return nil, fmt.Errorf("core: no measurement to precode from")
	}
	streams, txAnts := m.H[0].Rows, m.H[0].Cols
	if txAnts < streams {
		return nil, fmt.Errorf("core: %d tx antennas cannot serve %d streams", txAnts, streams)
	}
	e := c.entries[mask]
	lb := math.Float64bits(lambda)
	if e != nil && e.builtFor == m && e.lambdaBits == lb {
		return e, nil
	}
	fresh := e == nil || e.lambdaBits != lb || len(e.h) != len(m.H) ||
		e.h[0].Rows != streams || e.h[0].Cols != txAnts
	if fresh {
		e = &zfEntry{
			lambdaBits: lb,
			h:          make([]*matrix.M, len(m.H)),
			gi:         make([]*matrix.M, len(m.H)),
			updates:    make([]int, len(m.H)),
		}
		for i := range m.H {
			e.h[i] = matrix.New(streams, txAnts)
			e.gi[i] = matrix.New(streams, streams)
		}
		c.entries[mask] = e
	}
	for i, h := range m.H {
		if !fresh && e.updates[i] < zfMaxUpdates && c.shermanMorrison(e.gi[i], e.h[i], h, &e.updates[i]) {
			e.incrementalBins++
		} else {
			// Invert into scratch and swap only on success, so a singular
			// bin leaves the cached (h, gi) pair consistent.
			c.gram = reshape(c.gram, streams, streams)
			c.inv = reshape(c.inv, streams, streams)
			c.elim = reshape(c.elim, streams, streams)
			gramInto(c.gram, h, lambda)
			if err := c.gram.InverseInto(c.inv, c.elim); err != nil {
				return nil, fmt.Errorf("core: bin %d: %w", m.Bins[i], err)
			}
			e.gi[i], c.inv = c.inv, e.gi[i]
			e.updates[i] = 0
			e.fullInversions++
		}
		copy(e.h[i].Data, h.Data)
	}
	pre, err := precoderFromInverses(m, e.gi)
	if err != nil {
		return nil, err
	}
	e.pre = pre
	e.mw = nil
	e.builtFor = m
	return e, nil
}

// reshape returns m resized to rows×cols, reusing its storage (contents
// stale) when it is large enough and allocating a zero matrix otherwise.
func reshape(m *matrix.M, rows, cols int) *matrix.M {
	if m == nil || cap(m.Data) < rows*cols {
		return matrix.New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// gramInto writes G = H·Hᴴ + λI (streams × streams) into g without forming
// Hᴴ. It accumulates like h.Mul(h.H()) — k ascending, zero factors of H
// skipped — so G is bit-identical to that product.
func gramInto(g, h *matrix.M, lambda float64) {
	clear(g.Data)
	for i := 0; i < h.Rows; i++ {
		grow := g.Row(i)
		for k, a := range h.Row(i) {
			if a == 0 {
				continue
			}
			for j := range grow {
				grow[j] += a * cmplx.Conj(h.At(j, k))
			}
		}
	}
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+complex(lambda, 0))
	}
}

// shermanMorrison updates gi — the inverse of hOld's Gram matrix H·Hᴴ + λI
// — in place so it inverts hNew's, applying two rank-1 corrections per
// changed channel row: changing row r of H perturbs row r and column r of
// the Gram matrix, G' = G + e_r·uᴴ + v·e_rᴴ with u = H·δᴴ and
// v = u + e_r·‖δ‖² evaluated against the updated row. It reports false — leaving gi
// untouched — when the drift is too large or a denominator falls under
// zfCondFloor, and adds the applied corrections to *updates.
func (c *ZFCache) shermanMorrison(gi, hOld, hNew *matrix.M, updates *int) bool {
	var driftSq, normSq float64
	for i, v := range hOld.Data {
		d := hNew.Data[i] - v
		driftSq += real(d)*real(d) + imag(d)*imag(d)
		normSq += real(v)*real(v) + imag(v)*imag(v)
	}
	if driftSq == 0 {
		return true
	}
	if normSq == 0 || driftSq > zfDriftLimit*zfDriftLimit*normSq {
		return false
	}
	n := gi.Rows
	cols := hOld.Cols
	// Work on a copy so a mid-row fallback never leaves gi half-updated.
	c.work = reshape(c.work, n, n)
	work := c.work
	copy(work.Data, gi.Data)
	// cur tracks the channel with already-processed rows replaced, since u
	// for a later row must see the earlier rows' new values.
	c.cur = reshape(c.cur, hOld.Rows, cols)
	cur := c.cur
	copy(cur.Data, hOld.Data)
	// Per-row vectors, fully rewritten before each read.
	if len(c.vecs) < 4*n {
		c.vecs = make([]complex128, 4*n)
	}
	u, uhg, gv, rowR := c.vecs[:n], c.vecs[n:2*n], c.vecs[2*n:3*n], c.vecs[3*n:4*n]
	applied := 0
	for r := 0; r < hOld.Rows; r++ {
		rowOld := cur.Row(r)
		rowNew := hNew.Row(r)
		var deltaSq float64
		for j := range rowOld {
			d := rowNew[j] - rowOld[j]
			deltaSq += real(d)*real(d) + imag(d)*imag(d)
		}
		if deltaSq == 0 {
			continue
		}
		// u_i = Σ_j cur[i][j]·conj(δ_j); v = u except v_r = u_r + ‖δ‖².
		for i := 0; i < n; i++ {
			var acc complex128
			ci := cur.Row(i)
			for j := 0; j < cols; j++ {
				acc += ci[j] * cmplx.Conj(rowNew[j]-rowOld[j])
			}
			u[i] = acc
		}
		// First correction: G + e_r·uᴴ.
		// (G')⁻¹ = Gi − (Gi·e_r)(uᴴ·Gi)/(1 + uᴴ·Gi·e_r), uhg_j = (uᴴ·Gi)_j.
		for j := 0; j < n; j++ {
			var acc complex128
			for i := 0; i < n; i++ {
				acc += cmplx.Conj(u[i]) * work.At(i, j)
			}
			uhg[j] = acc
		}
		den := 1 + uhg[r]
		if cmplx.Abs(den) < zfCondFloor {
			return false
		}
		for i := 0; i < n; i++ {
			gir := work.At(i, r)
			if gir == 0 {
				continue
			}
			f := gir / den
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-f*uhg[j])
			}
		}
		// Second correction: + v·e_rᴴ with v = u + e_r·‖δ‖²; gv_i = (Gi·v)_i.
		u[r] += complex(deltaSq, 0)
		for i := 0; i < n; i++ {
			var acc complex128
			for j := 0; j < n; j++ {
				acc += work.At(i, j) * u[j]
			}
			gv[i] = acc
		}
		den = 1 + gv[r]
		if cmplx.Abs(den) < zfCondFloor {
			return false
		}
		copy(rowR, work.Row(r))
		for i := 0; i < n; i++ {
			f := gv[i] / den
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-f*rowR[j])
			}
		}
		copy(cur.Row(r), rowNew)
		applied += 2
	}
	copy(gi.Data, work.Data)
	*updates += applied
	return true
}

// precoderFromInverses assembles W = k·Hᴴ·(H·Hᴴ+λI)⁻¹ per bin and applies
// the per-antenna power normalization. (For any λ this right form equals
// the left form (HᴴH+λI)⁻¹Hᴴ mathematically; only floating-point rounding
// differs.)
func precoderFromInverses(m *Measurement, gi []*matrix.M) (*Precoder, error) {
	streams, txAnts := m.H[0].Rows, m.H[0].Cols
	p := &Precoder{Bins: m.Bins, W: make([]*matrix.M, len(m.H)), Streams: streams, TxAnts: txAnts}
	for i, h := range m.H {
		// w = Hᴴ·G⁻¹ without forming Hᴴ, accumulated like h.H().Mul(gi[i])
		// (k ascending, zero factors skipped) so it is bit-identical.
		w := matrix.New(txAnts, streams)
		for a := 0; a < txAnts; a++ {
			wrow := w.Row(a)
			for k := 0; k < streams; k++ {
				f := cmplx.Conj(h.At(k, a))
				if f == 0 {
					continue
				}
				for j, v := range gi[i].Row(k) {
					wrow[j] += f * v
				}
			}
		}
		p.W[i] = w
	}
	if err := p.normalizePower(); err != nil {
		return nil, err
	}
	return p, nil
}
