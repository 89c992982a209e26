// Package sync holds the paper's distributed phase synchronization (§5):
// the measure→predict→correct loop that keeps every slave AP's oscillator
// phase locked to the lead's so the joint zero-forcing nulls survive. Each
// slave measures the lead's in-band sync header on every packet (§5.2), a
// direct Δφ measurement; HeaderSync is that scheme.
//
// HeaderSync is stateless; all per-(slave, lead) state lives in the Peer
// it is handed, so one value is safe to share across networks and
// goroutines and a run stays deterministic. The split between the verbs
// matters to the caller:
//
//   - Init seeds a Peer from a freshly captured reference channel.
//   - Measure folds one received reference observation into the Peer and
//     returns the Correction to apply; it is the only mutating verb.
//   - Predict extrapolates the Correction to a future ether tick without
//     an observation and must not mutate the Peer — the caller uses it for
//     the sync-loss fallback and the extrapolation ablation.
//   - Confidence reports how much a prediction at a given tick can be
//     trusted; a value ≤ 0 tells the caller to abstain (withhold the
//     slave's antennas) rather than fire with a garbage phase ratio.
package sync

import (
	"math"

	"megamimo/internal/cmplxs"
	"megamimo/internal/ofdm"
	"megamimo/internal/units"
)

// Peer is one AP's synchronization state toward one potential lead.
// HeaderSync owns the state machine; callers only read Ref (to detect an
// unseeded peer) and the CFO estimate for telemetry.
type Peer struct {
	// Ref is the reference channel ĥᵢ^peer(0), one complex gain per FFT
	// bin (§5.1c). nil until Init runs.
	Ref []complex128
	// RefAt is the ether time of the reference estimate's phase-reference
	// sample: phase ratios against Ref measure the oscillator advance
	// since exactly this instant.
	RefAt int64
	// CFO is the current best estimate of ω_peer − ω_self in
	// rad/sample (§5.3: averaged for intra-packet tracking).
	CFO units.RadPerSample
	// FuseWeight is the precision weight of the long-term CFO average
	// (samples², variance ∝ 1/baseline²).
	FuseWeight float64
	// LastPhase/LastAt snapshot the latest ratio phase for cross-packet
	// CFO refinement: two phase snapshots a known (long) time apart give a
	// far more precise frequency estimate than any single header.
	LastPhase units.Radians
	LastAt    int64
	HasPhase  bool
	// SlopeRate is the long-term sampling-offset slope rate in
	// rad/bin/sample (§5.2: the per-subcarrier phase slope from sampling
	// frequency offset, averaged like the CFO). A single packet's slope
	// estimate is noisy enough to swing the correction by ~0.1 rad on
	// asymmetric fading; the averaged rate is not.
	SlopeRate   float64
	SlopeWeight float64
}

// RefCapture is a freshly captured reference handed to HeaderSync.Init: the
// reference channel, its phase-reference time, the packet-wide CFO
// estimate and the baseline that estimate was formed over.
type RefCapture struct {
	// Ref is the per-bin reference channel estimate.
	Ref []complex128
	// RefAt is the ether time of Ref's phase-reference sample.
	RefAt int64
	// CFO is the capture's packet-wide carrier-offset estimate.
	CFO units.RadPerSample
	// Baseline is the effective baseline of that estimate in samples; the
	// precision weight of subsequent fusion seeds as Baseline².
	Baseline float64
}

// Correction is one slave's phase correction for one transmission: the
// per-bin ratio ĥ(t)/ĥ(0) to multiply into the precoder row, referenced
// at ether time At, plus the CFO for intra-packet extrapolation and the
// residual phase error the flight recorder's π/18 budget bounds.
type Correction struct {
	// Ratio is the per-bin unit-magnitude correction (nonzero only on
	// occupied bins).
	Ratio []complex128
	// At is the phase-reference time of Ratio.
	At int64
	// RefAt is the phase-reference time of the stored reference channel.
	RefAt int64
	// CFO extrapolates the correction within the packet (§5.3).
	CFO units.RadPerSample
	// Residual is the innovation of this measurement against the
	// long-term CFO prediction — the phase error the prediction missed by
	// (0 when nothing was measured or fused).
	Residual units.Radians
}

// occCarriers, occCarrierSet and occBins cache the static occupied-carrier
// layout so per-packet ratio fits don't rebuild it. All three are
// read-only after init.
var occCarriers = ofdm.OccupiedCarriers()
var occCarrierSet = func() map[int]bool {
	m := make(map[int]bool, len(occCarriers))
	for _, k := range occCarriers {
		m[k] = true
	}
	return m
}()
var occBins = func() []int {
	out := make([]int, len(occCarriers))
	for i, k := range occCarriers {
		out[i] = ofdm.Bin(k)
	}
	return out
}()

// ratioComponents extracts the slave correction's parts from two channel
// snapshots. The true ratio ĥ(t)/ĥ(0) is the same pure phase on every
// subcarrier (§5.2 — the lead→slave channel is static; only the
// oscillators moved) plus a linear phase slope across subcarriers
// contributed by the sampling offset (§5.2: "any offset in the sampling
// frequency just adds to the phase error in each OFDM subcarrier").
// Fitting scalar-plus-slope instead of taking per-bin ratios averages the
// estimation noise across all 52 occupied bins and keeps faded bins from
// poisoning the correction. It returns the measured slope and the per-bin
// product vector for composeRatio.
func ratioComponents(cur, ref []complex128) (float64, []complex128) {
	bins := occBins
	q := make([]complex128, ofdm.NFFT)
	for _, b := range bins {
		q[b] = cur[b] * conj(ref[b])
	}
	// Slope across subcarriers: a coarse lag-1 estimate resolves the 2π
	// ambiguity of a much lower-noise lag-13 estimate (averaging over many
	// well-separated pairs instead of effectively differencing the band
	// edges).
	ks := occCarriers
	inBand := occCarrierSet
	var lag1 complex128
	for i := 0; i+1 < len(ks); i++ {
		if ks[i+1] != ks[i]+1 {
			continue // skip the DC gap
		}
		lag1 += q[ofdm.Bin(ks[i+1])] * conj(q[ofdm.Bin(ks[i])])
	}
	coarse := phaseOf(lag1)
	const lag = 13
	var lagAcc complex128
	for _, k := range ks {
		if !inBand[k+lag] {
			continue
		}
		lagAcc += q[ofdm.Bin(k+lag)] * conj(q[ofdm.Bin(k)])
	}
	slope := coarse
	if lagAcc != 0 {
		resid := cmplxs.WrapPhase(units.Radians(phaseOf(lagAcc) - coarse*lag))
		slope = (coarse*lag + units.Ratio(resid, 1)) / lag
	}
	return slope, q
}

// composeRatio builds the per-bin unit-magnitude correction from the
// product vector and a slope: the common phase is fit after removing the
// slope, then re-applied per carrier.
func composeRatio(q []complex128, slope float64) []complex128 {
	var acc complex128
	for _, k := range occCarriers {
		acc += q[ofdm.Bin(k)] * cmplxs.Expi(units.Radians(-slope*float64(k)))
	}
	common := cmplxs.Phase(acc)
	ratio := make([]complex128, ofdm.NFFT)
	for _, k := range occCarriers {
		ratio[ofdm.Bin(k)] = cmplxs.Expi(common + units.Radians(slope*float64(k)))
	}
	return ratio
}

// FitRatio is the single-shot form: per-packet slope, no tracking (used
// where no long-term state exists, e.g. the client side of the §6.2
// reference-antenna trick).
func FitRatio(cur, ref []complex128) []complex128 {
	slope, q := ratioComponents(cur, ref)
	return composeRatio(q, slope)
}

// trackSlope fuses a per-packet slope measurement into the long-term
// sampling-offset rate (precision weighted by baseline, like trackCFO) and
// returns the slope to apply for this packet.
func (ps *Peer) trackSlope(meas, dt float64) float64 {
	if dt <= 0 {
		return meas
	}
	rateMeas := meas / dt
	w := dt * dt
	const weightCap = 1e11
	total := ps.SlopeWeight + w
	ps.SlopeRate = (ps.SlopeWeight*ps.SlopeRate + w*rateMeas) / total
	ps.SlopeWeight = math.Min(total, weightCap)
	return ps.SlopeRate * dt
}

// conj avoids importing math/cmplx for the hot product loops.
func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// phaseOf is the raw (unitless-input) phase read used by the slope fits.
func phaseOf(v complex128) float64 { return units.Ratio(cmplxs.Phase(v), 1) }
