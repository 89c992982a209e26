package dsp

import "math/cmplx"

// Convolve returns the full linear convolution of x and h
// (length len(x)+len(h)-1). This is the multipath-channel kernel: x is the
// transmitted sample stream and h the tap vector.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	for i, hv := range h {
		if hv == 0 {
			continue
		}
		for j, xv := range x {
			out[i+j] += hv * xv
		}
	}
	return out
}

// ConvolveInto writes the convolution of x and h into dst, which must have
// length ≥ len(x)+len(h)-1, accumulating into existing contents (so several
// transmitters can be summed onto one receive buffer). It returns the
// number of samples touched.
//
// The kernel runs output-oriented: one pass over dst accumulating every
// tap, rather than one full pass over dst per tap. For the short tap
// vectors of indoor channel models that roughly halves the memory
// traffic, which is what this loop is bound by.
func ConvolveInto(dst, x, h []complex128) int {
	n := len(x) + len(h) - 1
	if len(x) == 0 || len(h) == 0 {
		return 0
	}
	if len(dst) < n {
		panic("dsp: ConvolveInto destination too short")
	}
	nx, nh := len(x), len(h)
	if nh == 4 && nx >= 4 {
		// The dominant case (4-tap indoor models), fully unrolled.
		h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
		dst[0] += h0 * x[0]
		dst[1] += h0*x[1] + h1*x[0]
		dst[2] += h0*x[2] + h1*x[1] + h2*x[0]
		for o := 3; o < nx; o++ {
			dst[o] += h0*x[o] + h1*x[o-1] + h2*x[o-2] + h3*x[o-3]
		}
		dst[nx] += h1*x[nx-1] + h2*x[nx-2] + h3*x[nx-3]
		dst[nx+1] += h2*x[nx-1] + h3*x[nx-2]
		dst[nx+2] += h3 * x[nx-1]
		return n
	}
	for o := 0; o < n; o++ {
		tLo, tHi := o-nx+1, o+1
		if tLo < 0 {
			tLo = 0
		}
		if tHi > nh {
			tHi = nh
		}
		var acc complex128
		for t := tLo; t < tHi; t++ {
			acc += h[t] * x[o-t]
		}
		dst[o] += acc
	}
	return n
}

// ConvolveRotateAdd fuses the multipath convolution with the carrier
// rotation and the medium summation: for k in [0, len(dst)) it accumulates
//
//	dst[k] += (Σ_t h[t]·x[oLo+k-t]) · rot_k,   rot_{k+1} = rot_k·step
//
// i.e. the window [oLo, oLo+len(dst)) of the full convolution of x and h,
// rotated by a per-sample phase recurrence, added onto the receiver's ether
// buffer in one pass with no intermediate convolution scratch. The window
// must satisfy 0 ≤ oLo and oLo+len(dst) ≤ len(x)+len(h)-1; the air medium
// clamps it to the observation overlap, so emissions mostly outside the
// window only pay for the samples a receiver actually hears.
func ConvolveRotateAdd(dst, x, h []complex128, oLo int, rot, step complex128) {
	if len(x) == 0 || len(h) == 0 || len(dst) == 0 {
		return
	}
	nx, nh := len(x), len(h)
	oHi := oLo + len(dst)
	if oLo < 0 || oHi > nx+nh-1 {
		panic("dsp: ConvolveRotateAdd window out of range")
	}
	if nh == 4 && nx >= 4 {
		// The dominant case (4-tap indoor models), fully unrolled.
		h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
		k, o := 0, oLo
		for ; o < 3 && o < oHi; o++ {
			acc := h0 * x[o]
			if o >= 1 {
				acc += h1 * x[o-1]
			}
			if o >= 2 {
				acc += h2 * x[o-2]
			}
			dst[k] += acc * rot
			rot *= step
			k++
		}
		iHi := oHi
		if iHi > nx {
			iHi = nx
		}
		for ; o < iHi; o++ {
			acc := h0*x[o] + h1*x[o-1] + h2*x[o-2] + h3*x[o-3]
			dst[k] += acc * rot
			rot *= step
			k++
		}
		for ; o < oHi; o++ {
			var acc complex128
			if o-1 < nx {
				acc += h1 * x[o-1]
			}
			if o-2 < nx {
				acc += h2 * x[o-2]
			}
			acc += h3 * x[o-3]
			dst[k] += acc * rot
			rot *= step
			k++
		}
		return
	}
	k := 0
	for o := oLo; o < oHi; o++ {
		tLo, tHi := o-nx+1, o+1
		if tLo < 0 {
			tLo = 0
		}
		if tHi > nh {
			tHi = nh
		}
		var acc complex128
		for t := tLo; t < tHi; t++ {
			acc += h[t] * x[o-t]
		}
		dst[k] += acc * rot
		rot *= step
		k++
	}
}

// CrossCorrelateInto writes c[k] = Σ_i x[i+k]·conj(ref[i]) for
// k in [0, len(x)-len(ref)] into dst, which must hold that many values,
// and returns the filled prefix: the sliding correlation used for packet
// detection against a known preamble.
func CrossCorrelateInto(dst, x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(x) < len(ref) {
		return nil
	}
	out := dst[:len(x)-len(ref)+1]
	for k := range out {
		var acc complex128
		win := x[k : k+len(ref)]
		for i, r := range ref {
			acc += win[i] * cmplx.Conj(r)
		}
		out[k] = acc
	}
	return out
}
