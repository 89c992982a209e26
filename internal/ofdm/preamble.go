package ofdm

import (
	"math"

	"megamimo/internal/dsp"
)

// The 802.11 legacy preamble:
//
//	L-STF: 10 repetitions of a 16-sample pattern (160 samples) — packet
//	       detection, AGC, coarse CFO.
//	L-LTF: 32-sample guard + 2 × 64-sample training symbols (160 samples) —
//	       fine timing, fine CFO, channel estimation.
const (
	STFLen      = 160
	STFPeriod   = 16
	LTFLen      = 160
	LTFGuard    = 32
	PreambleLen = STFLen + LTFLen
)

// stfFreq returns the frequency-domain short-training sequence S_{-26..26}
// (802.11-1999 §17.3.3) placed on a 64-bin grid.
func stfFreq() []complex128 {
	v := complex(math.Sqrt(13.0/6.0), 0) * (1 + 1i)
	m := map[int]complex128{
		-24: v, -20: -v, -16: v, -12: -v, -8: -v, -4: v,
		4: -v, 8: -v, 12: v, 16: v, 20: v, 24: v,
	}
	out := make([]complex128, NFFT)
	for k, val := range m {
		out[Bin(k)] = val
	}
	return out
}

// ltfSeq is L_{-26..26} from 802.11-1999 §17.3.3.
var ltfSeq = [53]float64{
	1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
	0,
	1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
}

// LTFFreq returns the frequency-domain long-training sequence on a 64-bin
// grid; bins outside −26…26 are zero.
func LTFFreq() []complex128 {
	out := make([]complex128, NFFT)
	for i, v := range ltfSeq {
		k := i - 26
		out[Bin(k)] = complex(v, 0)
	}
	return out
}

// STF returns the 160-sample short training field.
func STF() []complex128 {
	plan := dsp.MustPlanFor(NFFT)
	t := make([]complex128, NFFT)
	plan.InverseScaled(t, stfFreq(), math.Sqrt(NFFT))
	out := make([]complex128, STFLen)
	for i := range out {
		out[i] = t[i%NFFT]
	}
	return out
}

// LTF returns the 160-sample long training field: a 32-sample guard
// (the tail of the long symbol) followed by two full 64-sample symbols.
func LTF() []complex128 {
	plan := dsp.MustPlanFor(NFFT)
	t := make([]complex128, NFFT)
	plan.InverseScaled(t, LTFFreq(), math.Sqrt(NFFT))
	out := make([]complex128, LTFLen)
	copy(out[:LTFGuard], t[NFFT-LTFGuard:])
	copy(out[LTFGuard:LTFGuard+NFFT], t)
	copy(out[LTFGuard+NFFT:], t)
	return out
}

// Preamble returns STF followed by LTF (320 samples).
func Preamble() []complex128 {
	out := make([]complex128, 0, PreambleLen)
	out = append(out, STF()...)
	out = append(out, LTF()...)
	return out
}
