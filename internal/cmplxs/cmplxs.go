// Package cmplxs provides small kernels over []complex128 slices: the
// element-wise arithmetic, rotation and phase helpers that the DSP, OFDM
// and beamforming layers are built on.
//
// All functions that write into a destination slice require the destination
// to be at least as long as the inputs and panic otherwise; silent
// truncation in signal paths hides bugs that later look like RF impairments.
package cmplxs

import (
	"math"
	"math/cmplx"

	"megamimo/internal/units"
)

// Add stores a[i]+b[i] into dst and returns dst. dst may alias a or b.
func Add(dst, a, b []complex128) []complex128 {
	checkLen(len(dst), len(a), len(b))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Scale stores s*a[i] into dst and returns dst.
func Scale(dst []complex128, a []complex128, s complex128) []complex128 {
	checkLen(len(dst), len(a), len(a))
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// Rotate stores a[i]*e^{j(phase0 + i*phaseStep)} into dst and returns dst.
// It is the oscillator-offset kernel: phaseStep = 2π·Δf/Fs rotates a signal
// the way a carrier frequency offset of Δf does at sample rate Fs.
func Rotate(dst, a []complex128, phase0 units.Radians, phaseStep units.RadPerSample) []complex128 {
	checkLen(len(dst), len(a), len(a))
	// Recurrence with periodic renormalization: cheap and accurate to
	// well below the phase errors the system is designed to tolerate.
	//lint:ignore units complex exponentials take the bare scalar; the rotation kernel is a legal stripping boundary
	rot := cmplx.Exp(complex(0, float64(phase0)))
	//lint:ignore units complex exponentials take the bare scalar; the rotation kernel is a legal stripping boundary
	step := cmplx.Exp(complex(0, float64(phaseStep)))
	for i := range a {
		dst[i] = a[i] * rot
		rot *= step
		if i&1023 == 1023 {
			rot /= complex(cmplx.Abs(rot), 0)
		}
	}
	return dst
}

// Phase returns the argument of v in (-π, π].
func Phase(v complex128) units.Radians { return units.Radians(cmplx.Phase(v)) }

// WrapPhase wraps an angle into (-π, π].
func WrapPhase(p units.Radians) units.Radians { return units.WrapRadians(p) }

// PhaseDiff returns the wrapped phase difference arg(a)-arg(b) in (-π, π].
func PhaseDiff(a, b complex128) units.Radians {
	return Phase(a * cmplx.Conj(b))
}

// Expi returns e^{jθ}.
func Expi(theta units.Radians) complex128 {
	//lint:ignore units math.Sincos takes the bare scalar; the rotation kernel is a legal stripping boundary
	s, c := math.Sincos(float64(theta))
	return complex(c, s)
}

// DB converts a linear power ratio to decibels.
func DB(linear float64) units.Decibels { return units.Decibels(10 * math.Log10(linear)) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db units.Decibels) float64 { return units.DBToLinear(db) }

func checkLen(dst, a, b int) {
	if a != b {
		panic("cmplxs: input length mismatch")
	}
	if dst < a {
		panic("cmplxs: destination too short")
	}
}
