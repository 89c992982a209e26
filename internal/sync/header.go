package sync

import (
	"math"

	"megamimo/internal/cmplxs"
	"megamimo/internal/ofdm"
	"megamimo/internal/units"
)

// HeaderSync is the paper's scheme (§5.2): every joint transmission opens
// with the lead's in-band sync header; each slave measures the per-bin
// ratio ĥ(t)/ĥ(0) against its stored reference — a direct phase
// measurement that cannot accumulate error — and refines a long-term CFO
// average for intra-packet tracking. Prediction (used only when a header
// is lost) extrapolates Δφ = Δω̂·Δt, and confidence decays linearly to
// zero over the caller's staleness budget since the last good
// measurement.
type HeaderSync struct{}

// Header returns the paper's sync-header scheme.
func Header() HeaderSync { return HeaderSync{} }

// Init stores the reference, seeds the long-term CFO with the capture's
// packet-wide estimate (a baseline of thousands of samples, so the
// rad/sample error is orders of magnitude below a single header's lag-64
// estimate) and lets the reference itself be the first phase snapshot
// (phase(ĥ/ĥ) = 0 at RefAt) so the very next packet already fuses a long
// baseline. The slope tracker deliberately survives re-measurement: the
// sampling-offset rate is an oscillator property, not a channel property.
func (HeaderSync) Init(ps *Peer, ref RefCapture) {
	ps.Ref = ref.Ref
	ps.RefAt = ref.RefAt
	ps.CFO = ref.CFO
	ps.FuseWeight = ref.Baseline * ref.Baseline
	ps.LastPhase = 0
	ps.LastAt = ref.RefAt
	ps.HasPhase = true
}

// Measure fits the scalar-plus-slope ratio against the reference, fuses
// the slope and CFO trackers, and returns the measured correction. The
// residual is the innovation of this packet's measured phase against the
// long-term CFO prediction — the residual phase error the π/18 nulling
// budget (§11.1b) bounds.
func (HeaderSync) Measure(ps *Peer, cur []complex128, at int64) (Correction, error) {
	slopeMeas, q := ratioComponents(cur, ps.Ref)
	slope := ps.trackSlope(slopeMeas, float64(at-ps.RefAt))
	ratio := composeRatio(q, slope)
	resid := ps.trackCFO(ratio, at)
	return Correction{Ratio: ratio, At: at, RefAt: ps.RefAt, CFO: ps.CFO, Residual: resid}, nil
}

// Predict extrapolates the correction from the long-term CFO estimate
// alone, Δφ = Δω̂·Δt on every occupied bin. It is the ExtrapolatePhase
// ablation's correction and the bounded-staleness fallback when a
// sync-header measurement fails.
func (HeaderSync) Predict(ps *Peer, at int64) Correction {
	ratio := make([]complex128, ofdm.NFFT)
	phase := units.PhaseAdvance(ps.CFO, units.Samples(at-ps.RefAt))
	for _, b := range occBins {
		ratio[b] = cmplxs.Expi(phase)
	}
	return Correction{Ratio: ratio, At: at, RefAt: ps.RefAt, CFO: ps.CFO}
}

// Confidence is full trust right after a measurement, decaying linearly
// to zero one sample past the staleness budget — so the caller's abstain
// rule (confidence ≤ 0) reproduces the §5.2b bounded staleness exactly:
// extrapolate while age ≤ budget, withhold beyond it.
func (HeaderSync) Confidence(ps *Peer, at int64, budget units.Ticks) float64 {
	if !ps.HasPhase || budget <= 0 {
		return 0
	}
	age := units.Ticks(at - ps.LastAt)
	if age > budget {
		return 0
	}
	return units.Ratio(budget-age+1, budget+1)
}

// trackCFO refines the slave's long-term CFO with the phase advance of the
// ratio between consecutive packets: Δφ/Δt over a baseline of thousands of
// samples, which is how "a simple long term average for the frequency
// offset" (§1) reaches intra-packet accuracy. The current estimate
// resolves the 2π ambiguity; measurements fuse precision-weighted
// (variance ∝ 1/Δt²), and the total weight is capped so slow oscillator
// wander is still tracked. Very long idle gaps (where ambiguity
// resolution would be unsafe) only reset the phase snapshot. It returns the
// measured innovation (the phase the prediction missed by, rad) as the
// residual-phase-error telemetry; 0 when no fusion happened.
func (ps *Peer) trackCFO(ratio []complex128, at int64) units.Radians {
	var sum complex128
	for _, v := range ratio {
		sum += v
	}
	phase := cmplxs.Phase(sum)
	defer func() {
		ps.LastPhase = phase
		ps.LastAt = at
		ps.HasPhase = true
	}()
	if !ps.HasPhase {
		return 0
	}
	dt := float64(at - ps.LastAt)
	if dt <= 0 || dt > 2e5 {
		return 0
	}
	predicted := units.PhaseAdvance(ps.CFO, units.Samples(dt))
	resid := cmplxs.WrapPhase(phase - ps.LastPhase - predicted)
	meas := units.RadiansOver(predicted+resid, units.Samples(dt))
	wMeas := dt * dt
	const weightCap = 1e11 // forget beyond ~(300k samples)² so wander tracks
	total := ps.FuseWeight + wMeas
	ps.CFO = units.Div(units.Scale(ps.CFO, ps.FuseWeight)+units.Scale(meas, wMeas), total)
	ps.FuseWeight = math.Min(total, weightCap)
	return resid
}
