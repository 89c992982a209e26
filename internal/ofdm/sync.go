package ofdm

import (
	"errors"
	"math"
	"math/cmplx"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/units"
)

// ErrNoPacket is returned when no preamble is detected in the sample
// stream.
var ErrNoPacket = errors.New("ofdm: no packet detected")

// Sync is the result of preamble acquisition on a received stream.
type Sync struct {
	// PayloadStart is the index of the first sample after the preamble
	// (the first data-symbol cyclic prefix).
	PayloadStart int
	// CFO is the estimated carrier frequency offset in radians per sample.
	CFO units.RadPerSample
	// LTFStart is the index where the LTF guard interval begins.
	LTFStart int
	// Metric is the peak normalized detection metric in [0, 1].
	Metric float64
}

// Detect locates a legacy preamble in rx. It uses the classic two-stage
// approach: a normalized lag-16 autocorrelation plateau finds the STF and
// yields the coarse CFO; cross-correlation with the known LTF refines
// timing; the lag-64 correlation across the two LTF repetitions refines the
// CFO. threshold is the minimum normalized plateau metric (0.5 is a robust
// default at SNR ≥ 0 dB).
//
// The plateau search streams: the lag-16 autocorrelation over a 64-sample
// window and the energy over the 80 samples it spans are running sums,
// updated one sample at a time, and the scan stops one STF length past the
// first window over the threshold, so the search reads the stream only up
// to the plateau and allocates nothing the length of rx.
func Detect(rx []complex128, threshold float64) (*Sync, error) {
	if len(rx) < PreambleLen+SymbolLen {
		return nil, ErrNoPacket
	}
	const win = 64
	const span = win + STFPeriod // samples one autocorrelation window reads
	var auto complex128
	for i := 0; i < win; i++ {
		auto += rx[i] * cmplx.Conj(rx[i+STFPeriod])
	}
	var energy float64
	for i := 0; i < span; i++ {
		energy += power(rx[i])
	}
	// Take the FIRST plateau that clears the threshold (scanning to its
	// local maximum within one STF length), not the global best — a later
	// frame in the same stream may correlate more strongly, but acquisition
	// must lock to the earliest packet.
	coarse, best := -1, 0.0
	var peak complex128 // autocorrelation at the plateau maximum
	for i, stop := 0, len(rx)-span+1; i < stop; i++ {
		if i > 0 {
			auto -= rx[i-1] * cmplx.Conj(rx[i-1+STFPeriod])
			auto += rx[i+win-1] * cmplx.Conj(rx[i+win-1+STFPeriod])
			energy += power(rx[i+span-1]) - power(rx[i-1])
		}
		// Normalize by windowed energy to get a scale-free metric. The
		// energy round-trips through its window mean because detection
		// results are pinned bit for bit to that operation order. A NaN
		// energy yields a NaN metric, which clears any threshold. Samples
		// that provably cannot pass skip the magnitude and the division.
		m := 0.0
		if e := energy / span * span; !(e <= 0) {
			d := e * win / span
			lim := threshold
			if coarse >= 0 {
				lim = best
			}
			if metricBelow(auto, d, lim) {
				continue
			}
			m = cmplx.Abs(auto) / d
		}
		if coarse < 0 {
			if m <= threshold {
				continue
			}
			stop = min(stop, i+STFLen)
		} else if !(m > best) {
			continue
		}
		best, coarse, peak = m, i, auto
	}
	if coarse < 0 {
		return nil, ErrNoPacket
	}
	// Coarse CFO from the STF plateau: phase of lag-16 correlation.
	coarseCFO := units.RadPerSample(-cmplx.Phase(peak) / float64(STFPeriod))

	// Fine timing: cross-correlate a derotated window with the known LTF
	// long symbol. Search around the expected LTF location.
	searchLo := coarse
	searchHi := coarse + STFLen + LTFGuard + 3*NFFT
	if searchHi+NFFT > len(rx) {
		searchHi = len(rx) - NFFT
	}
	if searchHi <= searchLo {
		return nil, ErrNoPacket
	}
	var winBuf, xcBuf [fineSpan]complex128
	win2 := winBuf[:copy(winBuf[:], rx[searchLo:min(searchHi+NFFT, len(rx))])]
	cmplxs.Rotate(win2, win2, 0, -coarseCFO)
	xc := dsp.CrossCorrelateInto(xcBuf[:], win2, ltfTimeRef)
	// The LTF long symbol appears twice, 64 samples apart; find the pair
	// with the largest combined magnitude, taking each |xc| once.
	var magBuf [fineSpan - NFFT + 1]float64
	mag := magBuf[:len(xc)]
	for i, v := range xc {
		mag[i] = cmplx.Abs(v)
	}
	bestPos, bestVal := -1, 0.0
	for i := 0; i+NFFT < len(mag); i++ {
		v := mag[i] + mag[i+NFFT]
		if v > bestVal {
			bestVal, bestPos = v, i
		}
	}
	if bestPos < 0 {
		return nil, ErrNoPacket
	}
	ltf1 := searchLo + bestPos // start of first long symbol
	ltfStart := ltf1 - LTFGuard
	payload := ltf1 + 2*NFFT
	if payload+SymbolLen > len(rx) {
		return nil, ErrNoPacket
	}
	// Fine CFO: lag-64 correlation between the two long symbols (on the
	// raw, un-derotated samples so it measures total CFO).
	var acc complex128
	for i := 0; i < NFFT; i++ {
		acc += rx[ltf1+i] * cmplx.Conj(rx[ltf1+NFFT+i])
	}
	fineCFO := units.RadPerSample(-cmplx.Phase(acc) / float64(NFFT))
	// fineCFO is unambiguous only within ±π/64 rad/sample; fold the coarse
	// estimate's integer part in: count how many full 2π turns the
	// coarse/fine disagreement accumulates over one FFT length.
	k := math.Round(units.Ratio(units.PhaseAdvance(coarseCFO-fineCFO, NFFT), 2*math.Pi))
	cfo := fineCFO + units.RadiansOver(units.Radians(2*math.Pi*k), NFFT)

	return &Sync{
		PayloadStart: payload,
		CFO:          cfo,
		LTFStart:     ltfStart,
		Metric:       best,
	}, nil
}

// fineSpan bounds Detect's fine-timing window: the LTF search spans
// STFLen+LTFGuard+3·NFFT start positions past the plateau plus one long
// symbol, so the window and its cross-correlation live on the stack.
const fineSpan = STFLen + LTFGuard + 4*NFFT

// metricBelow reports that the plateau metric |auto|/d is below lim, so
// Detect may skip the sample, by comparing |auto|² with (lim·d)² under a
// relative margin of 1e-9: orders of magnitude above the few ulps the
// squares, cmplx.Abs and the division can move either side, so a skipped
// sample's exact metric is below lim too. It answers false, and Detect
// computes the exact metric, wherever that proof does not hold: lim ≤ 0, a
// NaN or infinite operand, a square that overflows, or |auto|² below
// 2⁻⁹⁰⁰, where an underflowed square would lose its relative precision.
func metricBelow(auto complex128, d, lim float64) bool {
	const margin, tiny = 1 - 1e-9, 0x1p-900
	a2 := power(auto)
	b := lim * d
	b2 := b * b
	return lim > 0 && a2 >= tiny && b2 <= math.MaxFloat64 && a2 < b2*margin
}

// power is |v|², the per-sample energy.
func power(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}

// ltfTimeRef is one time-domain LTF long symbol, the immutable fine-timing
// reference shared by every detection.
var ltfTimeRef = LTF()[LTFGuard : LTFGuard+NFFT]

// ltfFreqRef is the immutable LTF reference shared by every channel
// estimate, so per-frame decodes don't rebuild it.
var ltfFreqRef = LTFFreq()

// EstimateChannelLTF produces a least-squares channel estimate from the two
// long training symbols. rx must contain the stream, sync the acquisition
// result; the returned slice has one complex gain per FFT bin (zero outside
// the occupied carriers). The estimate averages both LTF repetitions after
// CFO derotation.
func EstimateChannelLTF(rx []complex128, sync *Sync) ([]complex128, error) {
	ltf1 := sync.LTFStart + LTFGuard
	if ltf1+2*NFFT > len(rx) {
		return nil, ErrNoPacket
	}
	plan := dsp.MustPlanFor(NFFT)
	ref := ltfFreqRef
	h := make([]complex128, NFFT)
	var bufArr, freqArr [NFFT]complex128
	buf, freq := bufArr[:], freqArr[:]
	for rep := 0; rep < 2; rep++ {
		start := ltf1 + rep*NFFT
		copy(buf, rx[start:start+NFFT])
		// Derotate CFO with the phase referenced at the first LTF sample
		// (not the window origin): the reference lever arm multiplying the
		// CFO estimation error is then ≤ one symbol, which is what lets
		// repeated channel snapshots (MegaMIMO's slave ratio) compare
		// phases to millirad accuracy.
		cmplxs.Rotate(buf, buf, units.PhaseAdvance(-sync.CFO, units.Samples(start-ltf1)), -sync.CFO)
		plan.ForwardScaled(freq, buf, 1/math.Sqrt(NFFT))
		for k := range freq {
			if ref[k] == 0 {
				continue
			}
			h[k] += freq[k] / ref[k]
		}
	}
	for k := range h {
		h[k] /= 2
	}
	SmoothChannel(h)
	return h, nil
}

// SmoothChannel applies a [1 2 1]/4 kernel across adjacent occupied
// carriers of a 64-bin channel estimate, in place. An indoor channel a few
// taps long varies slowly across subcarriers (coherence ≳ 16 bins), so the
// smoothing removes ~4 dB of estimation noise while the curvature bias
// stays 30+ dB below the channel — a standard 802.11 receiver denoiser.
// MegaMIMO clients apply it to their per-AP measurement-phase estimates
// too, which deepens the zero-forcing nulls on ill-conditioned bins.
func SmoothChannel(h []complex128) {
	var orig [NFFT]complex128
	copy(orig[:], h)
	for _, k := range occupiedCarriers {
		acc := 2 * orig[Bin(k)]
		w := 2.0
		if occupiedBin[Bin(k-1)] {
			acc += orig[Bin(k-1)]
			w++
		}
		if occupiedBin[Bin(k+1)] {
			acc += orig[Bin(k+1)]
			w++
		}
		h[Bin(k)] = acc / complex(w, 0)
	}
}

// occupiedCarriers and occupiedBin are SmoothChannel's read-only carrier
// tables: the occupied logical indices, and per FFT bin whether it is
// occupied. The neighbours ±27 of the band edges fold to bins 37 and 27,
// both unoccupied, so the bin table answers for them too.
var occupiedCarriers = OccupiedCarriers()

var occupiedBin = func() (t [NFFT]bool) {
	for _, k := range occupiedCarriers {
		t[Bin(k)] = true
	}
	return t
}()
