package dsp

// convolveRotateKernel is the interior step ConvolveRotateAdd runs, where
// every output reads all of h: x holds exactly the samples those outputs
// read, dst[k] += (Σ_t h[t]·x[k+len(h)-1-t])·rot_k, and it returns the
// rotation after the last output. For 3 and 4 taps, the links the
// simulated channels build, convolveRotatePairs runs the outputs in pairs
// and the Go step finishes an odd last one; other tap counts run the Go
// step.
func convolveRotateKernel(dst, x, h []complex128, rot, step complex128) complex128 {
	if nh := len(h); nh == 3 || nh == 4 {
		n := len(dst) &^ 1
		rot = convolveRotatePairs(dst[:n], x, h, rot, step)
		dst, x = dst[n:], x[n:]
	}
	return convolveRotateStep(dst, x, h, len(h)-1, rot, step)
}

// convolveRotatePairs is convolveRotateStep's interior in SSE2 assembly
// (filter_amd64.s) for 3 or 4 taps and an even len(dst): outputs k and k+1
// run in the two lanes of an XMM register. Every product, sum and
// rotation is the Go step's IEEE operation with the Go step's operands in
// the Go step's order, so it writes the same bits for every input without
// a NaN in it. SSE2 is part of the amd64 baseline, so there is no
// CPU-feature check.
//
//go:noescape
func convolveRotatePairs(dst, x, h []complex128, rot, step complex128) complex128
