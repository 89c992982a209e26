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
