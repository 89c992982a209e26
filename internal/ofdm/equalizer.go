package ofdm

import (
	"fmt"
	"math/cmplx"

	"megamimo/internal/units"
)

// Equalizer applies a per-subcarrier channel inverse to received symbols
// and tracks the residual common phase (CFO/SFO drift within a packet)
// using the four pilot tones, the standard OFDM receiver structure the
// paper relies on at the clients ("each client uses standard OFDM
// techniques to track the phase of the lead AP symbol by symbol", §5.3).
type Equalizer struct {
	h      []complex128  // per-bin channel estimate
	symIdx int           // pilot polarity counter
	common units.Radians // common phase applied to the latest symbol
	raw    units.Radians // unsmoothed common phase of the latest symbol
	// track smooths the per-symbol pilot phase: the real common phase
	// drifts slowly (residual CFO), while a single symbol's 4-pilot
	// estimate is noisy, so an EWMA with modest weight wins a couple of
	// dB of EVM at moderate SNR.
	track    complex128
	hasTrack bool
}

// cpeAlpha is the EWMA weight of a new pilot phase measurement.
const cpeAlpha = 0.5

// NewEqualizer builds an equalizer from a 64-bin channel estimate.
func NewEqualizer(h []complex128) (*Equalizer, error) {
	if len(h) != NFFT {
		return nil, fmt.Errorf("ofdm: channel estimate has %d bins, want %d", len(h), NFFT)
	}
	e := &Equalizer{h: append([]complex128(nil), h...)}
	return e, nil
}

// SymbolInto equalizes one received frequency-domain symbol (64 bins)
// into the 48 data-subcarrier values of dst (length NData). The pilot
// tones are used to estimate and remove the common phase error of this
// symbol before the data is written. It allocates nothing; dst must not
// alias freq.
func (e *Equalizer) SymbolInto(dst, freq []complex128) error {
	if len(freq) != NFFT {
		return fmt.Errorf("ofdm: symbol has %d bins, want %d", len(freq), NFFT)
	}
	if len(dst) != NData {
		return fmt.Errorf("ofdm: destination holds %d values, want %d", len(dst), NData)
	}
	ref := PilotReference(e.symIdx)
	// Pilot-based common phase estimate: sum over pilots of
	// (rx / (h·ref)) weighted by |h|².
	var acc complex128
	for i, k := range PilotCarriers {
		b := Bin(k)
		expect := e.h[b] * ref[i]
		acc += freq[b] * cmplx.Conj(expect)
	}
	if a := cmplx.Abs(acc); a > 0 {
		acc /= complex(a, 0)
	}
	if !e.hasTrack {
		e.track = acc
		e.hasTrack = true
	} else {
		e.track = complex(cpeAlpha, 0)*acc + complex(1-cpeAlpha, 0)*e.track
		if a := cmplx.Abs(e.track); a > 0 {
			e.track /= complex(a, 0)
		}
	}
	cpe := cmplx.Phase(e.track)
	rot := cmplx.Exp(complex(0, -cpe))
	e.raw = units.Radians(cmplx.Phase(acc))

	for i, k := range DataCarriers {
		b := Bin(k)
		h := e.h[b]
		if h == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = freq[b] * rot / h
	}
	e.common = units.Radians(cpe)
	e.symIdx++
	return nil
}

// CommonPhase returns the smoothed common phase applied to the most recent
// symbol, in radians.
func (e *Equalizer) CommonPhase() units.Radians { return e.common }

// RawCommonPhase returns the unsmoothed single-symbol pilot phase of the
// most recent symbol — the quantity the phase-alignment experiments
// histogram.
func (e *Equalizer) RawCommonPhase() units.Radians { return e.raw }

// Channel returns the equalizer's channel estimate (shared slice; callers
// must not modify it).
func (e *Equalizer) Channel() []complex128 { return e.h }
