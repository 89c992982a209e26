package aliasing

import (
	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
)

// cleanCalls exercises the aliasing shapes the contracts allow: full
// in-place aliasing, same-start windows, provably disjoint windows, and
// unrelated slices.
func cleanCalls(p *dsp.FFTPlan, x, b, out []complex128) {
	cmplxs.Add(x, x, b)                       // full in-place alias is the documented contract
	cmplxs.Add(x[:], x, b)                    // same start, same window
	cmplxs.Add(x[:4], x[4:8], b)              // provably disjoint constant windows
	cmplxs.Scale(out, x, 2)                   // unrelated slices
	p.Forward(x, x)                           // FFT supports full in-place operation
	dsp.ConvolveRotateAdd(out, x, b, 0, 1, 1) // strict contract satisfied
	cmplxs.Rotate(x, x, 0.1, 0.01)            // in-place rotate at identical offset
}
