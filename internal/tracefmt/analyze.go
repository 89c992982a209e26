package tracefmt

import (
	"math"
	"slices"
	"sort"

	"megamimo/internal/core"
	"megamimo/internal/units"
)

// Analysis primitives behind cmd/megamimo-trace. Everything here is a
// pure, deterministic function of (meta, events): results come back in
// sorted order, never map order.

// KindCount is one vocabulary entry's population.
type KindCount struct {
	Kind  string
	Count int
}

// Summary is the whole-trace overview.
type Summary struct {
	Events     int
	Spans      int // completed spans (matched begin/end pairs)
	OpenSpans  int // begins without a matching end (truncated recording)
	ByKind     []KindCount
	AtMin      int64
	AtMax      int64
	DurationMs float64 // (AtMax−AtMin)/SampleRate, 0 when no rate known
}

// Summarize computes the overview.
func Summarize(meta Meta, events []core.TraceEvent) *Summary {
	s := &Summary{Events: len(events)}
	counts := map[string]int{}
	open := map[int64]bool{}
	first := true
	for _, e := range events {
		counts[e.Kind]++
		switch e.Ph {
		case core.PhBegin:
			open[e.Span] = true
		case core.PhEnd:
			if open[e.Span] {
				delete(open, e.Span)
				s.Spans++
			}
		}
		if first || e.At < s.AtMin {
			s.AtMin = e.At
		}
		if first || e.At > s.AtMax {
			s.AtMax = e.At
		}
		first = false
	}
	s.OpenSpans = len(open)
	for _, k := range core.Kinds() {
		if counts[k] > 0 {
			s.ByKind = append(s.ByKind, KindCount{Kind: k, Count: counts[k]})
		}
	}
	if meta.SampleRate > 0 && !first {
		s.DurationMs = units.Duration(units.Ticks(s.AtMax-s.AtMin), meta.SampleRate) * 1e3
	}
	return s
}

// PhaseStat aggregates one slave AP's phase-synchronization telemetry
// from its slave-ratio events.
type PhaseStat struct {
	AP int
	N  int
	// Absolute residual phase error (innovation vs. the long-term CFO
	// prediction), radians.
	MedianAbsRad, P95AbsRad, MaxAbsRad units.Radians
	// CFORadPerSample is the mean CFO estimate toward the lead.
	CFORadPerSample units.RadPerSample
	// RelPPM expresses that CFO as a relative carrier offset in parts per
	// million (needs meta.SampleRate and meta.CarrierHz; 0 otherwise).
	RelPPM units.PPM
}

// PhaseStats folds slave-ratio events per AP, sorted by AP index.
func PhaseStats(meta Meta, events []core.TraceEvent) []PhaseStat {
	resid := map[int][]units.Radians{}
	cfoSum := map[int]units.RadPerSample{}
	for _, e := range events {
		if e.Kind != core.KindSlaveRatio {
			continue
		}
		ap := e.Attrs.AP
		resid[ap] = append(resid[ap], units.Abs(e.Attrs.PhaseErrRad))
		cfoSum[ap] += e.Attrs.CFORadPerSample
	}
	aps := make([]int, 0, len(resid))
	for ap := range resid {
		aps = append(aps, ap)
	}
	sort.Ints(aps)
	out := make([]PhaseStat, 0, len(aps))
	for _, ap := range aps {
		out = append(out, phaseStatFor(meta, ap, resid[ap], cfoSum[ap]))
	}
	return out
}

// phaseStatFor folds one AP's accumulated telemetry into its PhaseStat;
// shared between the batch PhaseStats pass and the incremental Monitor.
func phaseStatFor(meta Meta, ap int, rs []units.Radians, cfoSum units.RadPerSample) PhaseStat {
	st := PhaseStat{
		AP:              ap,
		N:               len(rs),
		MedianAbsRad:    quantile(rs, 0.5),
		P95AbsRad:       quantile(rs, 0.95),
		MaxAbsRad:       quantile(rs, 1),
		CFORadPerSample: units.Div(cfoSum, float64(len(rs))),
	}
	if meta.SampleRate > 0 && meta.CarrierHz > 0 {
		// cfo rad/sample → Δf = cfo·rate/2π; ppm = Δf/carrier·1e6.
		st.RelPPM = units.RadPerSampleToPPM(st.CFORadPerSample, meta.CarrierHz, meta.SampleRate)
	}
	return st
}

// SpanStat aggregates completed spans of one kind.
type SpanStat struct {
	Kind                   string
	N                      int
	MedianMs, P95Ms, MaxMs float64
}

// SpanStats matches begin/end pairs by span ID and reports duration
// distributions per kind, ordered by the vocabulary.
func SpanStats(meta Meta, events []core.TraceEvent) []SpanStat {
	type openSpan struct {
		kind string
		at   int64
	}
	open := map[int64]openSpan{}
	durs := map[string][]float64{}
	toMs := func(samples int64) float64 {
		if meta.SampleRate > 0 {
			return units.Duration(units.Ticks(samples), meta.SampleRate) * 1e3
		}
		return float64(samples)
	}
	for _, e := range events {
		switch e.Ph {
		case core.PhBegin:
			open[e.Span] = openSpan{kind: e.Kind, at: e.At}
		case core.PhEnd:
			if b, ok := open[e.Span]; ok && b.kind == e.Kind {
				delete(open, e.Span)
				durs[e.Kind] = append(durs[e.Kind], toMs(e.At-b.at))
			}
		}
	}
	var out []SpanStat
	for _, k := range core.Kinds() {
		ds := durs[k]
		if len(ds) == 0 {
			continue
		}
		out = append(out, SpanStat{
			Kind:     k,
			N:        len(ds),
			MedianMs: quantile(ds, 0.5),
			P95Ms:    quantile(ds, 0.95),
			MaxMs:    quantile(ds, 1),
		})
	}
	return out
}

// Budget holds the anomaly thresholds (DefaultBudget is the paper's).
type Budget struct {
	// PhaseBudgetRad is the paper's nulling budget on residual phase
	// error: π/18 rad (10°) keeps the null within ~1 dB of ideal (§11.1b).
	PhaseBudgetRad units.Radians
	// MaxRelPPM bounds the slave↔lead relative carrier offset. 802.11
	// mandates ±units.Dot11MaxPPM (20 ppm) per oscillator, so a compliant
	// pair stays within twice that relative.
	MaxRelPPM units.PPM
	// NullDegradeDB flags null-depth events this far below the run median.
	NullDegradeDB units.Decibels
	// EVMDegradeDB flags decode events this far below their stream's
	// median error-vector SNR.
	EVMDegradeDB units.Decibels
}

// DefaultBudget returns the paper-derived thresholds.
func DefaultBudget() Budget {
	return Budget{
		PhaseBudgetRad: math.Pi / 18,
		MaxRelPPM:      2 * units.Dot11MaxPPM,
		NullDegradeDB:  3,
		EVMDegradeDB:   6,
	}
}

// Anomaly is one budget violation.
type Anomaly struct {
	// Check names the rule: phase-budget, cfo-mandate, null-degradation,
	// evm-degradation, decode-failure, packet-failure.
	Check string
	// AP / Stream locate the offender (−1 when not applicable).
	AP, Stream int
	// Seq is the offending event (−1 for per-AP aggregates).
	Seq int64
	// Value and Threshold quantify the violation.
	Value, Threshold float64
	// Msg is the human-readable description.
	Msg string
}

// String renders one anomaly.
func (a Anomaly) String() string { return a.Msg }

// FindAnomalies checks the trace against the budgets:
//
//   - phase-budget: a slave AP whose median |residual phase error| exceeds
//     the π/18 nulling budget — the sync loop is not holding alignment.
//   - cfo-mandate: a slave AP whose mean CFO toward the lead exceeds the
//     802.11 ±20 ppm oscillator mandate (40 ppm relative).
//   - null-degradation: a null-depth measurement more than NullDegradeDB
//     below the run median.
//   - evm-degradation: a decode more than EVMDegradeDB below its stream's
//     median error-vector SNR.
//   - decode-failure / packet-failure: failed decodes and packets dropped
//     at max attempts.
//
// Results are ordered: per-AP checks by AP, then per-event checks by
// sequence number.
//
// FindAnomalies is the batch face of the incremental Monitor: it feeds
// the events through a monitor (live evaluation off) and returns its
// Anomalies, so the streaming and post-hoc paths cannot drift apart.
func FindAnomalies(meta Meta, events []core.TraceEvent, b Budget) []Anomaly {
	m := NewMonitor(meta, b, 0)
	for _, e := range events {
		m.Observe(e)
	}
	return m.Anomalies()
}

// quantile returns the q-quantile (0..1) of xs by nearest-rank on a
// sorted copy; 0 for empty input. Generic over dimensioned float64
// quantities so per-unit telemetry keeps its type through aggregation.
func quantile[T ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := make([]T, len(xs))
	copy(s, xs)
	slices.Sort(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
