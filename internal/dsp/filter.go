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
// window only pay for the samples a receiver actually hears. dst must not
// share storage with x or h.
//
// The outputs whose every tap reads inside x run through
// convolveRotateKernel; the few at either edge, where the tap sum is
// clipped, run through the Go step.
func ConvolveRotateAdd(dst, x, h []complex128, oLo int, rot, step complex128) {
	if len(x) == 0 || len(h) == 0 || len(dst) == 0 {
		return
	}
	nx, nh := len(x), len(h)
	oHi := oLo + len(dst)
	if oLo < 0 || oHi > nx+nh-1 {
		panic("dsp: ConvolveRotateAdd window out of range")
	}
	iLo, iHi := max(oLo, nh-1), min(oHi, nx)
	if iLo >= iHi {
		convolveRotateStep(dst, x, h, oLo, rot, step)
		return
	}
	rot = convolveRotateStep(dst[:iLo-oLo], x, h, oLo, rot, step)
	rot = convolveRotateKernel(dst[iLo-oLo:iHi-oLo], x[iLo-nh+1:iHi], h, rot, step)
	convolveRotateStep(dst[iHi-oLo:], x, h, iHi, rot, step)
}

// convolveRotateStep is ConvolveRotateAdd's loop in Go, without the
// window check: it adds output oLo+k of the convolution, rotated by rot_k,
// to dst[k], and returns rot_len(dst). Each output's tap sum starts from
// its first tap's product and adds the rest in tap order. It runs the
// edges of every window, the interior off amd64 and for tap counts the
// assembly does not cover, and is the reference the assembly is tested
// against.
func convolveRotateStep(dst, x, h []complex128, oLo int, rot, step complex128) complex128 {
	nx, nh := len(x), len(h)
	for k := range dst {
		o := oLo + k
		tLo, tHi := max(o-nx+1, 0), min(o+1, nh)
		acc := h[tLo] * x[o-tLo]
		for t := tLo + 1; t < tHi; t++ {
			acc += h[t] * x[o-t]
		}
		dst[k] += acc * rot
		rot *= step
	}
	return rot
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
