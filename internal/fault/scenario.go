package fault

import (
	"megamimo/internal/core"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// Scenario generates a randomized-but-seeded Plan: Intensity faults per
// simulated second drawn over [Start, Horizon), kinds weighted toward the
// interesting degradation paths, every effect window closed well before
// the horizon so the run ends in a recovered steady state. The same
// Scenario always yields the same Plan — generation consumes a private
// rng.Source in a fixed draw order.
type Scenario struct {
	Seed       int64
	Start      int64       // first eligible ether sample
	Horizon    int64       // end of the run window
	SampleRate units.Hertz // ether sample rate
	NumAPs     int
	NumStreams int
	Intensity  float64 // expected fault events per simulated second
}

// Storm plans a fault storm of intensity events per simulated second over
// the next seconds of a live network's ether clock, sized to its APs and
// streams.
func Storm(net *core.Network, seed int64, seconds, intensity float64) *Plan {
	start := net.Now()
	return Scenario{
		Seed:       seed,
		Start:      start,
		Horizon:    start + int64(units.TicksIn(seconds, net.Cfg.SampleRate)),
		SampleRate: net.Cfg.SampleRate,
		NumAPs:     len(net.APs),
		NumStreams: net.NumStreams(),
		Intensity:  intensity,
	}.Plan()
}

// Plan materializes the scenario's fault schedule.
func (s Scenario) Plan() *Plan {
	p := &Plan{Seed: s.Seed}
	window := s.Horizon - s.Start
	if window <= 0 || s.SampleRate <= 0 || s.Intensity <= 0 {
		return p
	}
	n := int(s.Intensity*float64(window)/units.Ratio(s.SampleRate, 1) + 0.5)
	src := rng.New(s.Seed)
	// Faults land in the first 60% of the window and every effect ends by
	// 80%, leaving a tail of recovered steady state.
	lastAt := s.Start + (window*6)/10
	lastEnd := s.Start + (window*8)/10
	// An effect shorter than a couple of traffic rounds is invisible: the
	// injector applies the fault and its recovery in the same between-rounds
	// call, so nothing ever degrades. Floor every outage at ~2 ms of samples
	// — window-proportional durations collapse below that on quick runs —
	// shrunk only when even the 80% confinement cannot fit it.
	minOutage := int64(2e-3 * units.Ratio(s.SampleRate, 1))
	if fit := lastEnd - s.Start; minOutage > fit {
		minOutage = fit
	}
	for i := 0; i < n; i++ {
		at := s.Start + int64(src.Uniform(0.05, 0.6)*float64(window))
		outage := int64(src.Uniform(0.05, 0.2) * float64(window))
		if outage < minOutage {
			outage = minOutage
		}
		if at > lastAt {
			at = lastAt
		}
		// Slide the fault earlier rather than truncating the outage, so the
		// effect keeps its full duration inside the confinement window.
		if at+outage > lastEnd {
			at = lastEnd - outage
			if at < s.Start {
				at = s.Start
			}
		}
		until := at + outage
		if until > lastEnd {
			until = lastEnd
		}
		u := src.Float64()
		ev := Event{At: at, Until: until}
		switch {
		case u < 0.20 && s.NumAPs > 1:
			ev.Kind = KindAPCrash
			ev.AP = src.Intn(s.NumAPs)
		case u < 0.30 && s.NumAPs > 1:
			ev.Kind = KindLeadFail
		case u < 0.45 && s.NumAPs > 1:
			ev.Kind = KindSyncCorrupt
			ev.AP = src.Intn(s.NumAPs)
		case u < 0.60:
			ev.Kind = KindBackendDrop
			ev.Param = src.Uniform(0.05, 0.35)
		case u < 0.70:
			ev.Kind = KindBackendDelay
			ev.Param = src.Uniform(20e-6, 100e-6) * units.Ratio(s.SampleRate, 1)
		case u < 0.80:
			ev.Kind = KindBackendJitter
			ev.Param = src.Uniform(20e-6, 150e-6) * units.Ratio(s.SampleRate, 1)
		case u < 0.90 && s.NumAPs > 1:
			ev.Kind = KindBackendPartition
			ev.AP = src.Intn(s.NumAPs)
		case s.NumStreams > 0:
			ev.Kind = KindClientLeave
			ev.Stream = src.Intn(s.NumStreams)
		default:
			ev.Kind = KindBackendDrop
			ev.Param = 0.2
		}
		p.Events = append(p.Events, ev)
	}
	p.Sort()
	return p
}
