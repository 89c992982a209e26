package sync

import (
	"megamimo/internal/units"
)

// BeamSync is the periodic over-the-air calibration scheme of "BeamSync:
// Over-The-Air Synchronization for Distributed Massive MIMO Systems"
// (arXiv 2311.11070): instead of measuring phase on every transmission,
// the array runs a beam-based calibration burst every Interval samples and
// extrapolates between bursts from the burst-to-burst CFO estimate. The
// airtime saved between bursts is the scheme's selling point; the cost is
// that every inter-burst correction is a pure prediction whose error grows
// with the burst spacing and the CFO estimation error.
//
// In this simulation the calibration burst reuses the lead's header
// observation (the beacons are already on the air); observations between
// bursts are *not* fused — only their innovation is reported as telemetry,
// the genie view a testbed gets from its ground-truth instrumentation —
// so the flight recorder shows the true inter-burst extrapolation error
// each strategy's π/18 budget is judged on.
type BeamSync struct {
	// Interval is the calibration-burst spacing in ether samples: an
	// observation is fused only when at least Interval has passed since
	// the last fused burst. Zero selects the default (40 000 samples,
	// 4 ms at 10 MHz).
	Interval units.Ticks
	// Gain is the EWMA gain of the burst-to-burst CFO update (0 selects
	// the default 0.25).
	Gain float64
	// IntervalScale models a mistuned deployment: the CFO estimator
	// divides each burst's phase advance by IntervalScale × the true
	// elapsed time (1 = correctly tuned; 0 selects 1). A scale ≪ 1
	// inflates every CFO estimate by 1/scale: BeamSync{IntervalScale: 0.01}
	// is the test-only canary the anomaly gate's ±40 ppm cfo-mandate must
	// catch even when the real oscillators are nearly aligned.
	IntervalScale float64
}

// defaultBeamInterval is 4 ms at the USRP testbed's 10 MHz.
const defaultBeamInterval units.Ticks = 40_000

// NewBeamSync returns BeamSync with its default burst spacing.
func NewBeamSync() Strategy {
	return BeamSync{Interval: defaultBeamInterval, Gain: 0.25, IntervalScale: 1}
}

func (s BeamSync) interval() units.Ticks {
	if s.Interval > 0 {
		return s.Interval
	}
	return defaultBeamInterval
}

func (s BeamSync) gain() float64 {
	if s.Gain > 0 {
		return s.Gain
	}
	return 0.25
}

func (s BeamSync) scale() float64 {
	if s.IntervalScale > 0 {
		return s.IntervalScale
	}
	return 1
}

// Name implements Strategy. A scale below 1 is the mistuned canary (a
// scale above 1 would deflate the CFO the same way); the registry ships
// neither, but the name keeps a canary run recognizable in trace meta.
func (s BeamSync) Name() string {
	if s.scale() < 1 {
		return "beamsync-mistuned"
	}
	return "beamsync"
}

// Init implements Strategy: the capture is burst zero.
func (s BeamSync) Init(ps *Peer, ref RefCapture) {
	ps.Ref = ref.Ref
	ps.RefAt = ref.RefAt
	ps.CFO = units.Scale(ref.CFO, 1/s.scale())
	ps.FuseWeight = ref.Baseline * ref.Baseline
	ps.LastPhase = 0
	ps.LastAt = ref.RefAt
	ps.HasPhase = true
	ps.BurstAt = ref.RefAt
	ps.BurstPhase = 0
	ps.BurstInit = true
}

// Measure implements Strategy. On a burst (≥ Interval since the last fused
// one) the observation calibrates directly: the measured ratio is applied,
// the burst-to-burst phase advance updates the CFO, and the burst snapshot
// moves forward. Between bursts the observation is used only to compute
// the telemetry residual; the applied correction is the extrapolation from
// the last burst.
func (s BeamSync) Measure(ps *Peer, cur []complex128, at int64) (Correction, error) {
	dt := at - ps.BurstAt
	if !ps.BurstInit || units.Ticks(dt) >= s.interval() {
		// Calibration burst: measure, fuse, apply directly.
		slopeMeas, q := ratioComponents(cur, ps.Ref)
		slope := ps.trackSlope(slopeMeas, float64(at-ps.RefAt))
		z := commonPhase(q, slope)
		var innovation units.Radians
		if ps.BurstInit && dt > 0 {
			// The current CFO resolves the 2π ambiguity of the burst's
			// phase advance; the mistuned estimator divides by the wrong
			// elapsed time, inflating the rate by 1/scale.
			predicted := units.PhaseAdvance(ps.CFO, units.Samples(dt))
			innovation = wrapInnovation(z, ps.BurstPhase, predicted)
			rate := units.RadiansOver(predicted+innovation, units.Samples(float64(dt)*s.scale()))
			g := s.gain()
			ps.CFO = units.Scale(ps.CFO, 1-g) + units.Scale(rate, g)
		}
		ps.BurstAt = at
		ps.BurstPhase = z
		ps.BurstInit = true
		ps.LastPhase = z
		ps.LastAt = at
		ps.HasPhase = true
		return Correction{
			Ratio:    composeRatio(q, slope),
			At:       at,
			RefAt:    ps.RefAt,
			CFO:      ps.CFO,
			Residual: innovation,
		}, nil
	}

	// Between bursts: apply the extrapolation; the observation only feeds
	// the genie residual so the flight recorder sees the true inter-burst
	// error.
	c := s.Predict(ps, at)
	slope := ps.SlopeRate * float64(at-ps.RefAt)
	_, q := ratioComponents(cur, ps.Ref)
	z := commonPhase(q, slope)
	predicted := units.PhaseAdvance(ps.CFO, units.Samples(dt))
	c.Residual = wrapInnovation(z, ps.BurstPhase, predicted)
	return c, nil
}

// Predict implements Strategy: extrapolate from the last burst on the
// tracked CFO.
func (s BeamSync) Predict(ps *Peer, at int64) Correction {
	phase := ps.BurstPhase + units.PhaseAdvance(ps.CFO, units.Samples(at-ps.BurstAt))
	slope := ps.SlopeRate * float64(at-ps.RefAt)
	return Correction{
		Ratio: buildRatio(phase, slope),
		At:    at,
		RefAt: ps.RefAt,
		CFO:   ps.CFO,
	}
}

// Confidence implements Strategy: inter-burst extrapolation is the
// strategy's normal operating mode, so confidence stays positive for a
// few intervals past the last burst (capped by the caller's staleness
// budget) and then collapses.
func (s BeamSync) Confidence(ps *Peer, at int64, budget units.Ticks) float64 {
	if !ps.BurstInit || !ps.HasPhase || budget <= 0 {
		return 0
	}
	age := units.Ticks(at - ps.BurstAt)
	horizon := 4 * s.interval()
	if budget < horizon {
		horizon = budget
	}
	if age > horizon {
		return 0
	}
	return units.Ratio(horizon-age+1, horizon+1)
}

// wrapInnovation returns the wrapped difference between a measured phase
// and the snapshot-plus-advance prediction (the trackCFO innovation form).
func wrapInnovation(z, snapshot, advance units.Radians) units.Radians {
	return units.WrapRadians(z - snapshot - advance)
}
