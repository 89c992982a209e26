package rng

import (
	"math"
	"math/bits"

	"megamimo/internal/dsp"
)

// normalKernel is the kernel AddComplexNormal runs, chosen once, before
// any draw: avx512Kernel where dsp.HasAVX512 reports AVX-512 F and DQ
// with ZMM state saved, else goKernel.
var normalKernel = func() kernel {
	switch {
	case dsp.HasAVX512():
		return avx512Kernel
	}
	return goKernel
}()

// addNormals adds sd times a standard normal draw to every element of d in
// order, the draws those of norm in turn, with kernel k.
func (r *lfsr) addNormals(k kernel, d []float64, sd float64) {
	if k == avx512Kernel {
		r.addNormalsAVX512(d, sd)
		return
	}
	r.addNormalsGo(d, sd)
}

// step runs one wrap-free run of the register with kernel k's step. It
// branches on k rather than calling through a function value, which would
// make the caller's batch escape to the heap.
func step(k kernel, out []uint64, fv, tv []int64) {
	if k == avx512Kernel {
		stepAVX512(out, fv, tv)
		return
	}
	stepGo(out, fv, tv)
}

// batchBits holds one bit per word of a batch.
type batchBits = [normalBatch / 64]uint64

// batch is what the AVX-512 path knows of a batch of n register words w.
// scanAVX512 writes y[k] = sd·x and sets acc's bit k when word k passes
// its rectangle test. For each word that
// does not, where word k+1 of the batch can serve as its wedge test's
// uniform, wedges sets known's bit k and, when the test accepts, wedge's
// bit k. resolve then turns acc into the set of words whose y is a draw.
type batch struct {
	w            [normalBatch]uint64
	y            [normalBatch]float64
	acc          batchBits
	known, wedge batchBits
	n            int
}

// addNormalsAVX512 is addNormals with the AVX-512 kernels: per batch, the
// step, the scan of every word's rectangle test, the wedge tests ahead,
// resolve for the draws whose first word fails its rectangle, and one
// commit of all the draws to d.
func (r *lfsr) addNormalsAVX512(d []float64, sd float64) {
	var b batch
	for len(d) > 0 {
		b.n = min(len(d), normalBatch)
		r.fill(avx512Kernel, b.w[:b.n])
		scanAVX512(&b.w, b.n, &b.y, &b.acc, sd)
		b.wedges()
		b.resolve(r, sd)
		d = d[commitAVX512(d, &b.y, &b.acc, b.n):]
	}
}

// wedges fills known and wedge for the words that fail their rectangle.
// Such a word needs them only when it starts an attempt, which only the
// draws before it decide; testing every one ahead lets the exponentials
// overlap instead of each waiting on the draw before.
func (b *batch) wedges() {
	b.known, b.wedge = batchBits{}, batchBits{}
	for k := 0; k < b.n; k += 64 {
		for m := ^b.acc[k/64]; m != 0; m &= m - 1 {
			p := k + bits.TrailingZeros64(m)
			if p+1 >= b.n {
				break
			}
			j := int32(b.w[p] >> 31)
			i := j & 0x7f
			if i == 0 {
				continue
			}
			if f, ok := uniform(b.w[p+1]); ok {
				x := float64(j) * float64(zigWn[i])
				b.known[p/64] |= 1 << (p % 64)
				b.wedge[p/64] |= bit(zigFn[i]+float32(f)*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x))) << (p % 64)
			}
		}
	}
}

// bit is 1 for true and 0 for false, which the compiler makes without a
// branch: the wedge tests' outcomes are a coin toss to a predictor.
func bit(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// resolve settles, in stream order, every attempt that starts at a word
// failing its rectangle test, so that acc's set bits end up at exactly
// the words whose y is a draw's value. NormFloat64 starts each attempt
// afresh from the next word, so an attempt settles on its own: where
// known holds, it took words p and p+1, and its draw ends at p when
// wedge accepts (scan already wrote y[p]) and goes on at p+2 otherwise.
// Any other attempt (the base strip's tail, a uniform past the batch)
// runs normal from p, which takes further words from the register if it
// must, and writes sd·x to y[p].
func (b *batch) resolve(r *lfsr, sd float64) {
	w := words{w: b.w[:b.n], r: r}
	p := 0 // no attempt starts below p
	for k, acc := range b.acc {
		// acc comes from the copy of b.acc the range takes: every bit
		// resolve changes lies below the next attempt, so the search
		// reads the scan's bits and need not wait on those stores.
		rejects := ^acc
		for {
			if lo := p - 64*k; lo >= 64 {
				break
			} else if lo > 0 {
				rejects &= ^uint64(0) << lo
			}
			if rejects == 0 {
				break
			}
			p = 64*k + bits.TrailingZeros64(rejects)
			if p >= b.n {
				return
			}
			if b.known[k]>>(p%64)&1 != 0 {
				b.acc[k] |= b.wedge[k] & (1 << (p % 64))
				b.acc[(p+1)/64] &^= 1 << ((p + 1) % 64)
				p += 2
				continue
			}
			w.p = p
			b.y[p] = sd * w.normal()
			b.acc[k] |= 1 << (p % 64)
			for q := p + 1; q < min(w.p, b.n); q++ {
				b.acc[q/64] &^= 1 << (q % 64)
			}
			p = w.p
		}
	}
}

// stepAVX512 is stepGo in AVX-512 assembly (normal_amd64.s), eight words
// to a vector from the top of the run down and the last len(out)%8 one at
// a time. A vector reads no word another lane of it writes, as the
// cursors sit at least 273 words apart.
//
//go:noescape
func stepAVX512(out []uint64, fv, tv []int64)

// scanAVX512 tests the first n words of w (normal_amd64.s), sixteen to an
// iteration and reading whole groups of w past n: it looks kn[i] and
// wn[i] up with VPERMI2D from the tables held in ZMM registers, sets acc's
// bit k when |j| < kn[i] (clearing the rest of each group's bits) and
// writes y[k] = (float64(j)·float64(wn[i]))·sd with rectanglesGo's IEEE
// operations, operands in the order the Go compiler gives them and no
// FMA, so y[k] is the bits rectanglesGo adds.
//
//go:noescape
func scanAVX512(w *[normalBatch]uint64, n int, y *[normalBatch]float64, acc *batchBits, sd float64)

// commitAVX512 adds y[p] + d[q] into d[q] for each p < n whose bit is set
// in acc, q counting up from 0, and returns the count (normal_amd64.s):
// VCOMPRESSPD packs eight words' draws at a time to the front of y, then
// y adds to d eight elements to a vector. It leaves y packed.
//
//go:noescape
func commitAVX512(d []float64, y *[normalBatch]float64, acc *batchBits, n int) int
