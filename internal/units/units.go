// Package units defines the dimension types the signal path carries —
// phases, frequencies, oscillator errors, powers and geometry — and the
// only sanctioned conversions between them.
//
// JMB's correctness hangs on numeric invariants with physical dimensions:
// the π/18 phase-error budget, the ±40 ppm relative-CFO mandate, the
// 2π·Δf/Fs conversion between a frequency offset and a per-sample phase
// step. Carried as bare float64 those invariants are one missed factor
// away from silently corrupting joint transmission. Each quantity is
// therefore a defined type: the compiler rejects mixed-dimension
// arithmetic outright, and the `units` lint analyzer rejects what the
// compiler cannot see — cross-dimension conversions that bypass the
// functions below, float64 casts that strip a dimension, and new
// unit-named identifiers declared as bare float64.
//
// Contract: this package is the only place allowed to strip a dimension
// type to float64. Every function here documents its formula; the
// formulas are locked by round-trip tests so refactors cannot drift the
// constants. Elsewhere, a cast to float64 needs a `//lint:ignore units
// <reason>` escape, legal only at serialization boundaries (see DESIGN.md
// §10).
package units

import "math"

// Radians is an angle or phase.
type Radians float64

// RadPerSample is a phase step per ether sample — the discrete-time form
// of a frequency offset (ω = 2π·Δf/Fs).
type RadPerSample float64

// Hertz is a frequency or rate in cycles per second.
type Hertz float64

// PPM is a relative frequency error in parts per million, the natural
// unit of crystal tolerance (802.11 mandates ±20 ppm per oscillator).
type PPM float64

// Decibels is a logarithmic power ratio (10·log₁₀ of a linear ratio).
// dB and dBm values share the type: adding a gain in dB to a power in
// dBm is dimensionally sound, multiplying two of them is not.
type Decibels float64

// Samples is a (possibly fractional) duration measured in ether samples.
type Samples float64

// Ticks is a discrete ether-clock sample count — timestamps and integer
// durations on the simulation clock.
type Ticks int64

// Meters is a distance.
type Meters float64

// Dot11MaxPPM is the per-oscillator crystal tolerance 802.11 mandates.
// The relative CFO between two compliant nodes is at most twice this;
// the trace anomaly gate's default MaxRelPPM derives from it.
const Dot11MaxPPM PPM = 20

// WrapRadians wraps an angle into (-π, π].
func WrapRadians(p Radians) Radians {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}

// PhaseAdvance returns the phase a rotation of w accumulates over dt
// samples: θ = ω·Δt.
func PhaseAdvance(w RadPerSample, dt Samples) Radians {
	return Radians(float64(w) * float64(dt))
}

// RadiansOver is the inverse of PhaseAdvance: the per-sample rate that
// accumulates phi over dt samples.
func RadiansOver(phi Radians, dt Samples) RadPerSample {
	return RadPerSample(float64(phi) / float64(dt))
}

// FreqOffset returns the absolute carrier offset a crystal error of ppm
// produces at the given carrier: Δf = f_c·ppm·10⁻⁶.
func FreqOffset(ppm PPM, carrier Hertz) Hertz {
	return Hertz(float64(carrier) * float64(ppm) * 1e-6)
}

// HzToRadPerSample converts a frequency offset to a per-sample phase
// step at the given sample rate: ω = 2π·Δf/Fs.
func HzToRadPerSample(off, rate Hertz) RadPerSample {
	return RadPerSample(2 * math.Pi * float64(off) / float64(rate))
}

// RadPerSampleToHz is the inverse of HzToRadPerSample: Δf = ω·Fs/2π.
func RadPerSampleToHz(w RadPerSample, rate Hertz) Hertz {
	return Hertz(float64(w) * float64(rate) / (2 * math.Pi))
}

// PPMToRadPerSample composes FreqOffset and HzToRadPerSample:
// ω = 2π·(f_c·ppm·10⁻⁶)/Fs.
func PPMToRadPerSample(ppm PPM, carrier, rate Hertz) RadPerSample {
	return HzToRadPerSample(FreqOffset(ppm, carrier), rate)
}

// RadPerSampleToPPM expresses a per-sample phase step as a relative
// carrier error: ppm = ω·Fs/2π/f_c·10⁶. The formula (and its evaluation
// order) matches the trace anomaly gate's historical computation exactly.
func RadPerSampleToPPM(w RadPerSample, carrier, rate Hertz) PPM {
	return PPM(float64(w) * float64(rate) / (2 * math.Pi) / float64(carrier) * 1e6)
}

// DBToLinear converts decibels to a linear power ratio: 10^(dB/10).
func DBToLinear(db Decibels) float64 { return math.Pow(10, float64(db)/10) }

// LinearToDB converts a linear power ratio to decibels: 10·log₁₀(x).
func LinearToDB(linear float64) Decibels { return Decibels(10 * math.Log10(linear)) }

// DegreesToRadians converts an angle in degrees: θ = deg·π/180.
func DegreesToRadians(deg float64) Radians { return Radians(deg * math.Pi / 180) }

// RadiansToDegrees is the inverse of DegreesToRadians.
func RadiansToDegrees(r Radians) float64 { return float64(r) * 180 / math.Pi }

// Duration converts an ether-sample count to seconds at the given rate.
func Duration(n Ticks, rate Hertz) float64 { return float64(n) / float64(rate) }

// TicksIn returns the whole ether samples in the given duration
// (truncating, like the int64 conversion it replaces).
func TicksIn(seconds float64, rate Hertz) Ticks {
	return Ticks(seconds * float64(rate))
}

// Abs returns the absolute value of a dimensioned quantity.
func Abs[T ~float64](x T) T { return T(math.Abs(float64(x))) }

// Scale multiplies a dimensioned quantity by a dimensionless factor.
func Scale[T ~float64](x T, k float64) T { return T(float64(x) * k) }

// Div divides a dimensioned quantity by a dimensionless factor.
func Div[T ~float64](x T, k float64) T { return T(float64(x) / k) }

// Ratio returns the dimensionless ratio of two same-dimension
// quantities. It accepts the integer tick types too, so durations compare
// without a bare float64 cast.
func Ratio[T ~float64 | ~int64](num, den T) float64 { return float64(num) / float64(den) }
