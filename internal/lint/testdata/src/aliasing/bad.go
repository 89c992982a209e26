// Package aliasing seeds overlapping src/dst kernel calls for the aliasing
// analyzer's golden test.
package aliasing

import (
	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
)

// shiftedOverlap writes each element one slot behind where it reads it.
func shiftedOverlap(x, b []complex128) {
	cmplxs.Add(x[1:], x, b[1:])          // want "overlapping source"
	cmplxs.Scale(x[2:], x[:len(x)-2], 2) // want "overlapping source"
	cmplxs.Rotate(x[1:], x, 0.1, 0.01)   // want "overlapping source"
}

// convolveAliased violates ConvolveRotateAdd's strict disjointness contract.
func convolveAliased(x, h []complex128) {
	dsp.ConvolveRotateAdd(x, x, h, 0, 1, 1) // want "disjoint"
}

// fftShifted partially overlaps an FFT's dst and src windows.
func fftShifted(p *dsp.FFTPlan, x []complex128) {
	p.Forward(x[1:], x[:len(x)-1])          // want "overlapping source"
	p.InverseScaled(x[2:], x[:len(x)-2], 8) // want "overlapping source"
}
