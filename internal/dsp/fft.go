// Package dsp supplies the signal-processing primitives beneath the OFDM
// PHY: power-of-two FFT/IFFT, correlation and convolution kernels, and a
// linear resampler used to model sampling-frequency offset.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFTPlan caches twiddle factors and the bit-reversal permutation for a
// fixed power-of-two transform size, so per-symbol transforms allocate
// nothing.
//
// Twiddles are stored per stage, contiguously, in both forward and
// conjugated (inverse) form: stage size 2h reads its h factors from
// tw[h-1 : 2h-1]. The butterfly loops therefore run stride-1 with no
// direction branch, and the k = 0 butterfly (w = 1) is peeled so the
// common term costs two adds instead of a complex multiply.
type FFTPlan struct {
	n    int
	logn int
	rev  []int32 // bit-reversal permutation
	twF  []complex128
	twI  []complex128
}

// NewFFTPlan returns a plan for size n, which must be a power of two ≥ 2.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two ≥ 2", n)
	}
	p := &FFTPlan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int32, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.twF = make([]complex128, n-1)
	p.twI = make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for k := 0; k < half; k++ {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(size))
			p.twF[half-1+k] = complex(c, s)
			p.twI[half-1+k] = complex(c, -s)
		}
	}
	return p, nil
}

// MustFFTPlan is NewFFTPlan that panics on error; for compile-time-constant
// sizes such as the 64-point OFDM transform.
func MustFFTPlan(n int) *FFTPlan {
	p, err := NewFFTPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the transform size.
func (p *FFTPlan) Size() int { return p.n }

// Forward computes the DFT of src into dst (both length n). dst and src may
// alias. The transform is unnormalized: Forward∘Inverse = identity because
// Inverse divides by n.
func (p *FFTPlan) Forward(dst, src []complex128) {
	p.check(dst, src)
	p.reorder(dst, src)
	p.butterflies(dst[:p.n], p.twF)
}

// Inverse computes the inverse DFT of src into dst, scaled by 1/n. The
// scaling rides along with the bit-reversal copy, so the whole inverse is
// the same number of passes as the forward transform.
func (p *FFTPlan) Inverse(dst, src []complex128) {
	p.check(dst, src)
	scale := complex(1/float64(p.n), 0)
	if &dst[0] == &src[0] {
		for i, j := range p.rev {
			if i < int(j) {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
		for i := range dst[:p.n] {
			dst[i] *= scale
		}
	} else {
		for i, j := range p.rev {
			dst[i] = src[j] * scale
		}
	}
	p.butterflies(dst[:p.n], p.twI)
}

// ForwardBatch computes independent DFTs of every n-length frame packed
// contiguously in src into dst (len(src) must be a multiple of n; dst and
// src may alias). It is a plain per-frame loop over Forward: a convenience
// for callers that keep every symbol of a frame in one contiguous arena,
// not a faster transform.
func (p *FFTPlan) ForwardBatch(dst, src []complex128) {
	p.checkBatch(dst, src)
	for off := 0; off < len(src); off += p.n {
		p.Forward(dst[off:off+p.n], src[off:off+p.n])
	}
}

// InverseBatch is ForwardBatch for the scaled inverse transform.
func (p *FFTPlan) InverseBatch(dst, src []complex128) {
	p.checkBatch(dst, src)
	for off := 0; off < len(src); off += p.n {
		p.Inverse(dst[off:off+p.n], src[off:off+p.n])
	}
}

func (p *FFTPlan) check(dst, src []complex128) {
	if len(src) != p.n || len(dst) < p.n {
		panic("dsp: FFT buffer length mismatch")
	}
}

func (p *FFTPlan) checkBatch(dst, src []complex128) {
	if len(src)%p.n != 0 || len(dst) < len(src) {
		panic("dsp: FFT batch length mismatch")
	}
}

// reorder performs the bit-reversed copy (or in-place swap set when dst
// and src alias).
func (p *FFTPlan) reorder(dst, src []complex128) {
	if &dst[0] == &src[0] {
		for i, j := range p.rev {
			if i < int(j) {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range p.rev {
			dst[i] = src[j]
		}
	}
}

// butterflies runs the iterative Cooley-Tukey stages over bit-reversed
// data with the given direction's per-stage twiddle table.
func (p *FFTPlan) butterflies(dst []complex128, tw []complex128) {
	n := p.n
	// Stage size 2: every twiddle is 1.
	for i := 0; i < n; i += 2 {
		a, b := dst[i], dst[i+1]
		dst[i], dst[i+1] = a+b, a-b
	}
	for size := 4; size <= n; size <<= 1 {
		half := size >> 1
		stw := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += size {
			// k = 0: w = 1, no multiply.
			a, b := dst[start], dst[start+half]
			dst[start], dst[start+half] = a+b, a-b
			lo := dst[start+1 : start+half]
			hi := dst[start+half+1 : start+size]
			for k := range lo {
				a := lo[k]
				b := hi[k] * stw[k+1]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// FFT is a convenience wrapper that allocates a result and a plan for
// one-off transforms (tests, setup paths).
func FFT(src []complex128) []complex128 {
	p := MustFFTPlan(len(src))
	dst := make([]complex128, len(src))
	p.Forward(dst, src)
	return dst
}

// IFFT is the inverse convenience wrapper for FFT.
func IFFT(src []complex128) []complex128 {
	p := MustFFTPlan(len(src))
	dst := make([]complex128, len(src))
	p.Inverse(dst, src)
	return dst
}
