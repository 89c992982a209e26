// Package rate implements effective-SNR rate selection (Halperin et al.
// [13], the algorithm MegaMIMO's link layer uses, §9): per-subcarrier SNRs
// are collapsed to one "effective SNR" through the modulation's BER curve,
// and the highest MCS whose delivery threshold the effective SNR clears is
// chosen. Because the BER average is taken in probability space rather
// than dB space, a faded subcarrier costs exactly what it costs the
// decoder, which is what makes the prediction accurate on
// frequency-selective channels.
package rate

import (
	"math"

	"megamimo/internal/modulation"
	"megamimo/internal/phy"
	"megamimo/internal/units"
)

// Q is the Gaussian tail function Q(x) = P(N(0,1) > x).
func Q(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// invQ inverts Q by bisection on [0, 40].
func invQ(p float64) float64 {
	if p >= 0.5 {
		return 0
	}
	if p <= 0 {
		return 40
	}
	lo, hi := 0.0, 40.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if Q(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BER returns the uncoded bit error rate of the scheme at symbol SNR γ
// (linear), using the standard Gray-mapped approximations. An invalid
// scheme reports 0.5 — coin-flip bits — so rate selection degrades to
// "undecodable" instead of crashing on corrupt feedback.
func BER(s modulation.Scheme, snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	switch s {
	case modulation.BPSK:
		return Q(math.Sqrt(2 * snr))
	case modulation.QPSK:
		return Q(math.Sqrt(snr))
	case modulation.QAM16:
		return 0.75 * Q(math.Sqrt(snr/5))
	case modulation.QAM64:
		return (7.0 / 12.0) * Q(math.Sqrt(snr/21))
	}
	return 0.5
}

// invBER returns the symbol SNR at which the scheme reaches the given BER,
// or +Inf for an invalid scheme (no finite SNR delivers it).
func invBER(s modulation.Scheme, ber float64) float64 {
	switch s {
	case modulation.BPSK:
		x := invQ(ber)
		return x * x / 2
	case modulation.QPSK:
		x := invQ(ber)
		return x * x
	case modulation.QAM16:
		x := invQ(ber / 0.75)
		return 5 * x * x
	case modulation.QAM64:
		x := invQ(ber * 12 / 7)
		return 21 * x * x
	}
	return math.Inf(1)
}

// EffectiveSNRdB collapses per-subcarrier linear SNRs into the effective
// SNR (dB) for the given modulation: the flat-channel SNR that would give
// the same average BER.
func EffectiveSNRdB(subSNR []float64, s modulation.Scheme) float64 {
	if len(subSNR) == 0 {
		return math.Inf(-1)
	}
	var acc float64
	for _, g := range subSNR {
		acc += BER(s, g)
	}
	avg := acc / float64(len(subSNR))
	if avg <= 1e-15 {
		// Below any meaningful BER: report the dB-domain mean, which is
		// conservative and finite.
		var sum float64
		for _, g := range subSNR {
			sum += 10 * math.Log10(math.Max(g, 1e-12))
		}
		return sum / float64(len(subSNR))
	}
	return 10 * math.Log10(invBER(s, avg))
}

// Thresholds are the minimum effective SNR (dB) at which each MCS delivers
// with high probability, the table-lookup step of [13]. The values are the
// classic 802.11a waterfall ladder, validated against this repository's
// own PHY in rate_test.go (each MCS decodes reliably at threshold+1 dB and
// fails well below threshold−2 dB).
var Thresholds = [phy.NumMCS]float64{
	2.0,  // BPSK 1/2
	3.0,  // BPSK 3/4
	4.5,  // QPSK 1/2
	6.5,  // QPSK 3/4
	10.0, // 16-QAM 1/2
	12.5, // 16-QAM 3/4
	17.0, // 64-QAM 2/3
	18.5, // 64-QAM 3/4
}

// Select returns the highest MCS whose threshold the per-subcarrier SNRs
// clear, and ok=false if even the lowest does not.
func Select(subSNR []float64) (mcs phy.MCS, ok bool) {
	best, found := phy.MCS0, false
	for m := phy.MCS0; m < phy.NumMCS; m++ {
		eff := EffectiveSNRdB(subSNR, m.Modulation())
		if eff >= Thresholds[m] {
			best, found = m, true
		}
	}
	return best, found
}

// SelectFlat is Select for a frequency-flat channel at the given SNR (dB).
func SelectFlat(snrDB units.Decibels) (phy.MCS, bool) {
	return Select([]float64{units.DBToLinear(snrDB)})
}

// ThroughputAtMCS returns goodput at a fixed MCS: payload bits divided by
// the full frame airtime (preamble + SIGNAL + data symbols).
func ThroughputAtMCS(mcs phy.MCS, payloadBytes int, sampleRate units.Hertz) float64 {
	psduBits := 8 * (payloadBytes + 4) // + FCS
	ndbps := mcs.DataBitsPerSymbol()
	nsym := (16 + psduBits + 6 + ndbps - 1) / ndbps
	samples := 320 + 80*(1+nsym) // preamble + SIGNAL + data
	airtime := float64(samples) / units.Ratio(sampleRate, 1)
	return float64(8*payloadBytes) / airtime
}
