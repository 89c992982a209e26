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
//
// A 64-point plan on a CPU with AVX2 runs each transform as one call to
// fft64AVX2 instead, with the same twiddles in plane form; reorder and
// butterflies serve every other size and CPU and are its test oracle.
type FFTPlan struct {
	n    int
	logn int
	rev  []int32 // bit-reversal permutation
	twF  []complex128
	twI  []complex128
	// planes holds fft64AVX2's twiddles, forward then inverse. NewFFTPlan
	// sets it only for n = 64 where fftAVX2 holds, and every transform
	// runs the kernel exactly when it is set.
	planes *[2]fftPlanes
}

// fftPlanes is one direction's twiddles for fft64AVX2, split into real and
// imaginary planes so each YMM row holds four butterflies' factors: stage
// 4's w[0], w[1], w[0], w[1] at index 0, then stage size 2h's h factors at
// index h for h = 4, 8, 16, 32. Every factor is the Go steps' own value.
// pre is the inverse's 1/64 prescale, and 0, no prescale, for the forward
// transform.
type fftPlanes struct {
	re, im [64]float64
	pre    float64
}

func newFFTPlanes(tw []complex128, pre float64) fftPlanes {
	p := fftPlanes{pre: pre}
	set := func(i int, w complex128) { p.re[i], p.im[i] = real(w), imag(w) }
	for i := range 4 {
		set(i, tw[1+i%2])
	}
	for h := 4; h <= 32; h <<= 1 {
		for k := range h {
			set(h+k, tw[h-1+k])
		}
	}
	return p
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
	if n == 64 && fftAVX2 {
		p.planes = &[2]fftPlanes{newFFTPlanes(p.twF, 0), newFFTPlanes(p.twI, 1.0/64)}
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
func (p *FFTPlan) Forward(dst, src []complex128) { p.transform(dst, src, 0, 0, false) }

// Inverse computes the inverse DFT of src into dst, scaled by 1/n. The
// scaling rides along with the bit-reversal copy, so the whole inverse is
// the same number of passes as the forward transform.
func (p *FFTPlan) Inverse(dst, src []complex128) { p.transform(dst, src, 1, 0, false) }

// ForwardScaled is Forward followed by dst[i] *= complex(scale, 0) for
// every bin: Go's complex product, so a −0 or an infinite part comes out
// as that product's, not a real scaling's. It is how the OFDM modem
// applies its √n normalization, in the same call as the transform.
func (p *FFTPlan) ForwardScaled(dst, src []complex128, scale float64) {
	p.transform(dst, src, 0, scale, true)
}

// InverseScaled is Inverse followed by dst[i] *= complex(scale, 0).
func (p *FFTPlan) InverseScaled(dst, src []complex128, scale float64) {
	p.transform(dst, src, 1, scale, true)
}

// transform runs direction dir (0 forward, 1 inverse) of src into dst,
// then multiplies every output by complex(post, 0) if scaled.
func (p *FFTPlan) transform(dst, src []complex128, dir int, post float64, scaled bool) {
	if len(src) != p.n || len(dst) < p.n {
		panic("dsp: FFT buffer length mismatch")
	}
	if p.planes != nil {
		fft64AVX2((*[64]complex128)(dst), (*[64]complex128)(src), &p.planes[dir], post, scaled)
		return
	}
	dst = dst[:p.n]
	if dir == 0 {
		p.reorder(dst, src)
		p.butterflies(dst, p.twF)
	} else {
		p.reorderInverse(dst, src)
		p.butterflies(dst, p.twI)
	}
	if scaled {
		s := complex(post, 0)
		for i := range dst {
			dst[i] *= s
		}
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

// reorderInverse is reorder with the inverse transform's 1/n scaling, a
// complex product per sample.
func (p *FFTPlan) reorderInverse(dst, src []complex128) {
	scale := complex(1/float64(p.n), 0)
	if &dst[0] == &src[0] {
		p.reorder(dst, src)
		for i := range dst {
			dst[i] *= scale
		}
	} else {
		for i, j := range p.rev {
			dst[i] = src[j] * scale
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
