//go:build !amd64

package dsp

// convolveRotateKernel is the interior step ConvolveRotateAdd runs. Without
// an assembly version for this architecture it is the Go step.
func convolveRotateKernel(dst, x, h []complex128, rot, step complex128) complex128 {
	return convolveRotateStep(dst, x, h, len(h)-1, rot, step)
}

// crossCorrelateKernel is CrossCorrelateInto's loop. Without an assembly
// version for this architecture it is the Go step.
func crossCorrelateKernel(out, x, ref []complex128) {
	crossCorrelateStep(out, x, ref)
}

// fftAVX2 is false: NewFFTPlan builds no kernel tables for this
// architecture, so every transform runs reorder and butterflies and
// fft64AVX2 is never called.
const fftAVX2 = false

func fft64AVX2(dst, src *[64]complex128, tw *fftPlanes, post float64, scaled bool) {
	panic("dsp: no FFT kernel for this architecture")
}
