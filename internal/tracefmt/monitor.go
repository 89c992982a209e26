package tracefmt

import (
	"fmt"
	"sort"

	"megamimo/internal/core"
	"megamimo/internal/units"
)

// DefaultMonitorWindow is the sliding-window length (events per AP /
// per stream) live checks evaluate over when the caller does not choose
// one.
const DefaultMonitorWindow = 256

// monitorMinSamples gates live relative checks: a window needs this many
// samples before its median is trusted, so re-acquisition transients and
// cold stream statistics cannot trip a check batch analysis would pass.
const monitorMinSamples = 8

// Violation is one live check trip: the anomaly plus the ether time of
// the event that first tripped it.
type Violation struct {
	Anomaly Anomaly
	// At is the ether sample time of the tripping event.
	At int64
}

// Monitor is the incremental form of FindAnomalies: it consumes events
// one at a time (as a core.TraceSink or via Observe) and serves two
// views of the same stream.
//
// The batch view — Anomalies() — is exactly FindAnomalies over every
// event observed so far: same checks, same thresholds, same messages,
// same order. FindAnomalies itself is implemented on top of it.
//
// The live view — Healthy, FirstViolation, Tripped — evaluates each
// event on arrival (enabled when window > 0): the per-AP phase-budget
// and cfo-mandate checks over a sliding window of the AP's last
// `window` slave-ratio events, the null/EVM degradation checks against
// a sliding median, and the absolute decode/packet-failure checks
// immediately. Each check records the ether timestamp of its first
// violation, which is what /healthz and `megamimo-trace follow` report
// while a run is still in flight.
//
// A Monitor is not safe for concurrent use; as a sink on one tracer it
// is serialized by the tracer's mutex, anything else must wrap it.
type Monitor struct {
	meta   Meta
	b      Budget
	window int

	// Batch accumulators, in arrival order where order matters.
	resid   map[int][]units.Radians
	cfoSum  map[int]units.RadPerSample
	nulls   []nullRec
	decodes []decodeRec
	rtx     []rtxRec
	events  int
	lastAt  int64

	// Live sliding windows and trip state.
	apWin   map[int]*apWindow
	tripped map[string]bool
	trips   []Violation
}

// nullRec is one null-depth measurement in arrival order.
type nullRec struct {
	seq, at int64
	stream  int
	depth   units.Decibels
}

// decodeRec is one decode outcome in arrival order.
type decodeRec struct {
	seq, at int64
	stream  int
	evm     units.Decibels
	cause   string
	msg     string
}

// rtxRec is one max-attempts packet drop.
type rtxRec struct {
	seq, at int64
	stream  int
	pkt     int64
}

// apWindow is one slave AP's sliding phase-sync telemetry.
type apWindow struct {
	resid []units.Radians
	cfo   []units.RadPerSample
	n     int // total observed; min(n, len cap) are live
}

// push adds one sample, displacing the oldest once the window is full.
func (w *apWindow) push(r units.Radians, c units.RadPerSample, window int) {
	if len(w.resid) < window {
		w.resid = append(w.resid, r)
		w.cfo = append(w.cfo, c)
	} else {
		i := w.n % window
		w.resid[i] = r
		w.cfo[i] = c
	}
	w.n++
}

// NewMonitor builds a monitor with the given run metadata and budgets
// (DefaultBudget for the paper's). window sets the live sliding-window
// length; window <= 0 disables live evaluation, leaving a pure
// incremental batch analyzer.
func NewMonitor(meta Meta, b Budget, window int) *Monitor {
	return &Monitor{
		meta:    meta,
		b:       b,
		window:  window,
		resid:   map[int][]units.Radians{},
		cfoSum:  map[int]units.RadPerSample{},
		apWin:   map[int]*apWindow{},
		tripped: map[string]bool{},
	}
}

// ConsumeTrace implements core.TraceSink.
func (m *Monitor) ConsumeTrace(e core.TraceEvent) { m.Observe(e) }

// Observe folds one event into both views.
func (m *Monitor) Observe(e core.TraceEvent) {
	m.events++
	m.lastAt = e.At
	switch e.Kind {
	case core.KindSlaveRatio:
		ap := e.Attrs.AP
		m.resid[ap] = append(m.resid[ap], units.Abs(e.Attrs.PhaseErrRad))
		m.cfoSum[ap] += e.Attrs.CFORadPerSample
		if m.window > 0 {
			m.observeSlaveRatio(e)
		}
	case core.KindNullDepth:
		m.nulls = append(m.nulls, nullRec{seq: e.Seq, at: e.At, stream: e.Attrs.Stream, depth: e.Attrs.NullDepthDB})
		if m.window > 0 {
			m.observeNullDepth(e)
		}
	case core.KindDecode:
		m.decodes = append(m.decodes, decodeRec{
			seq: e.Seq, at: e.At, stream: e.Attrs.Stream,
			evm: e.Attrs.EVMSNRdB, cause: e.Attrs.Cause, msg: e.Msg,
		})
		if m.window > 0 {
			m.observeDecode(e)
		}
	case core.KindRetransmit:
		if e.Attrs.Cause == "max-attempts" {
			m.rtx = append(m.rtx, rtxRec{seq: e.Seq, at: e.At, stream: e.Attrs.Stream, pkt: e.Attrs.Pkt})
			if m.window > 0 {
				m.trip(e.At, Anomaly{
					Check: "packet-failure", AP: -1, Stream: e.Attrs.Stream, Seq: e.Seq,
					Msg: fmt.Sprintf("packet-failure: stream %d packet %d dropped after max attempts at t=%d",
						e.Attrs.Stream, e.Attrs.Pkt, e.At),
				})
			}
		}
	}
}

// observeSlaveRatio evaluates the per-AP phase-budget and cfo-mandate
// checks over the AP's sliding window.
func (m *Monitor) observeSlaveRatio(e core.TraceEvent) {
	ap := e.Attrs.AP
	w := m.apWin[ap]
	if w == nil {
		w = &apWindow{}
		m.apWin[ap] = w
	}
	w.push(units.Abs(e.Attrs.PhaseErrRad), e.Attrs.CFORadPerSample, m.window)
	if len(w.resid) < monitorMinSamples {
		return
	}
	if med := quantile(w.resid, 0.5); med > m.b.PhaseBudgetRad {
		m.trip(e.At, Anomaly{
			Check: "phase-budget", AP: ap, Stream: -1, Seq: e.Seq,
			Value: units.Ratio(med, 1), Threshold: units.Ratio(m.b.PhaseBudgetRad, 1),
			Msg: fmt.Sprintf("phase-budget: slave AP %d median |phase err| %.4f rad exceeds the π/18 budget (%.4f rad) over %d headers",
				ap, med, m.b.PhaseBudgetRad, len(w.resid)),
		})
	}
	if m.meta.SampleRate > 0 && m.meta.CarrierHz > 0 {
		var sum units.RadPerSample
		for _, c := range w.cfo {
			sum += c
		}
		rel := units.RadPerSampleToPPM(units.Div(sum, float64(len(w.cfo))), m.meta.CarrierHz, m.meta.SampleRate)
		if units.Abs(rel) > m.b.MaxRelPPM {
			m.trip(e.At, Anomaly{
				Check: "cfo-mandate", AP: ap, Stream: -1, Seq: e.Seq,
				Value: units.Ratio(units.Abs(rel), 1), Threshold: units.Ratio(m.b.MaxRelPPM, 1),
				Msg: fmt.Sprintf("cfo-mandate: slave AP %d is %.1f ppm off the lead carrier — outside the 802.11 ±20 ppm mandate (|rel| ≤ %.0f ppm)",
					ap, rel, m.b.MaxRelPPM),
			})
		}
	}
}

// observeNullDepth checks one measurement against the sliding median of
// the last `window` depths.
func (m *Monitor) observeNullDepth(e core.TraceEvent) {
	tail := m.nulls
	if len(tail) > m.window {
		tail = tail[len(tail)-m.window:]
	}
	if len(tail) < monitorMinSamples {
		return
	}
	depths := make([]units.Decibels, len(tail))
	for i, r := range tail {
		depths[i] = r.depth
	}
	med := quantile(depths, 0.5)
	if e.Attrs.NullDepthDB < med-m.b.NullDegradeDB {
		m.trip(e.At, Anomaly{
			Check: "null-degradation", AP: -1, Stream: e.Attrs.Stream, Seq: e.Seq,
			Value: units.Ratio(e.Attrs.NullDepthDB, 1), Threshold: units.Ratio(med-m.b.NullDegradeDB, 1),
			Msg: fmt.Sprintf("null-degradation: stream %d null depth %.1f dB is >%.0f dB below the run median (%.1f dB) at t=%d",
				e.Attrs.Stream, e.Attrs.NullDepthDB, m.b.NullDegradeDB, med, e.At),
		})
	}
}

// observeDecode flags failed decodes immediately and EVM degradation
// against the stream's sliding median.
func (m *Monitor) observeDecode(e core.TraceEvent) {
	if e.Attrs.Cause != "" {
		m.trip(e.At, Anomaly{
			Check: "decode-failure", AP: -1, Stream: e.Attrs.Stream, Seq: e.Seq,
			Msg: fmt.Sprintf("decode-failure: stream %d frame undecodable at t=%d (%s)",
				e.Attrs.Stream, e.At, e.Msg),
		})
		return
	}
	var evms []units.Decibels
	for i := len(m.decodes) - 1; i >= 0 && len(evms) < m.window; i-- {
		r := m.decodes[i]
		if r.stream == e.Attrs.Stream && r.cause == "" {
			evms = append(evms, r.evm)
		}
	}
	if len(evms) < monitorMinSamples {
		return
	}
	med := quantile(evms, 0.5)
	if e.Attrs.EVMSNRdB < med-m.b.EVMDegradeDB {
		m.trip(e.At, Anomaly{
			Check: "evm-degradation", AP: -1, Stream: e.Attrs.Stream, Seq: e.Seq,
			Value: units.Ratio(e.Attrs.EVMSNRdB, 1), Threshold: units.Ratio(med-m.b.EVMDegradeDB, 1),
			Msg: fmt.Sprintf("evm-degradation: stream %d EVM SNR %.1f dB is >%.0f dB below its median (%.1f dB) at t=%d",
				e.Attrs.Stream, e.Attrs.EVMSNRdB, m.b.EVMDegradeDB, med, e.At),
		})
	}
}

// trip records a live violation; only the first per check is kept.
func (m *Monitor) trip(at int64, a Anomaly) {
	if m.tripped[a.Check] {
		return
	}
	m.tripped[a.Check] = true
	m.trips = append(m.trips, Violation{Anomaly: a, At: at})
}

// Healthy reports whether no live check has tripped. With live
// evaluation disabled (window <= 0) it is vacuously true; use
// Anomalies() there.
func (m *Monitor) Healthy() bool { return len(m.trips) == 0 }

// FirstViolation returns the earliest live violation.
func (m *Monitor) FirstViolation() (Violation, bool) {
	if len(m.trips) == 0 {
		return Violation{}, false
	}
	return m.trips[0], true
}

// Tripped returns the first violation of each tripped check, in the
// order they tripped.
func (m *Monitor) Tripped() []Violation {
	return append([]Violation(nil), m.trips...)
}

// Events returns how many events the monitor has observed.
func (m *Monitor) Events() int { return m.events }

// LastAt returns the ether time of the most recent event.
func (m *Monitor) LastAt() int64 { return m.lastAt }

// phaseStats reconstructs the per-AP PhaseStat aggregates from the
// monitor's accumulators, identically to PhaseStats over the full event
// slice.
func (m *Monitor) phaseStats() []PhaseStat {
	aps := make([]int, 0, len(m.resid))
	for ap := range m.resid {
		aps = append(aps, ap)
	}
	sort.Ints(aps)
	out := make([]PhaseStat, 0, len(aps))
	for _, ap := range aps {
		out = append(out, phaseStatFor(m.meta, ap, m.resid[ap], m.cfoSum[ap]))
	}
	return out
}

// Anomalies runs the batch checks over everything observed so far —
// exactly FindAnomalies over the same events: same thresholds, same
// messages, same order (per-AP checks by AP, then per-event checks in
// stream order).
func (m *Monitor) Anomalies() []Anomaly {
	var out []Anomaly
	for _, ps := range m.phaseStats() {
		// Gate on the median, not the p95: the innovation after a lead
		// handoff extrapolates phase over a many-millisecond gap, so a
		// single re-acquisition legitimately produces an O(1) rad
		// transient that the sync header corrects before any joint
		// transmission. A slave whose *median* innovation exceeds the
		// budget is misaligned on every header — that is the real defect.
		if ps.MedianAbsRad > m.b.PhaseBudgetRad {
			out = append(out, Anomaly{
				Check: "phase-budget", AP: ps.AP, Stream: -1, Seq: -1,
				Value: units.Ratio(ps.MedianAbsRad, 1), Threshold: units.Ratio(m.b.PhaseBudgetRad, 1),
				Msg: fmt.Sprintf("phase-budget: slave AP %d median |phase err| %.4f rad exceeds the π/18 budget (%.4f rad) over %d headers",
					ps.AP, ps.MedianAbsRad, m.b.PhaseBudgetRad, ps.N),
			})
		}
		if m.meta.CarrierHz > 0 && units.Abs(ps.RelPPM) > m.b.MaxRelPPM {
			out = append(out, Anomaly{
				Check: "cfo-mandate", AP: ps.AP, Stream: -1, Seq: -1,
				Value: units.Ratio(units.Abs(ps.RelPPM), 1), Threshold: units.Ratio(m.b.MaxRelPPM, 1),
				Msg: fmt.Sprintf("cfo-mandate: slave AP %d is %.1f ppm off the lead carrier — outside the 802.11 ±20 ppm mandate (|rel| ≤ %.0f ppm)",
					ps.AP, ps.RelPPM, m.b.MaxRelPPM),
			})
		}
	}

	// Null-depth degradation vs. the run median.
	if len(m.nulls) > 0 {
		depths := make([]units.Decibels, len(m.nulls))
		for i, r := range m.nulls {
			depths[i] = r.depth
		}
		med := quantile(depths, 0.5)
		for _, r := range m.nulls {
			if r.depth < med-m.b.NullDegradeDB {
				out = append(out, Anomaly{
					Check: "null-degradation", AP: -1, Stream: r.stream, Seq: r.seq,
					Value: units.Ratio(r.depth, 1), Threshold: units.Ratio(med-m.b.NullDegradeDB, 1),
					Msg: fmt.Sprintf("null-degradation: stream %d null depth %.1f dB is >%.0f dB below the run median (%.1f dB) at t=%d",
						r.stream, r.depth, m.b.NullDegradeDB, med, r.at),
				})
			}
		}
	}

	// Per-stream EVM degradation and decode failures.
	evms := map[int][]units.Decibels{}
	for _, r := range m.decodes {
		if r.cause == "" {
			evms[r.stream] = append(evms[r.stream], r.evm)
		}
	}
	medEVM := map[int]units.Decibels{}
	streams := make([]int, 0, len(evms))
	for s := range evms {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	for _, s := range streams {
		medEVM[s] = quantile(evms[s], 0.5)
	}
	for _, r := range m.decodes {
		if r.cause != "" {
			out = append(out, Anomaly{
				Check: "decode-failure", AP: -1, Stream: r.stream, Seq: r.seq,
				Msg: fmt.Sprintf("decode-failure: stream %d frame undecodable at t=%d (%s)",
					r.stream, r.at, r.msg),
			})
			continue
		}
		if med, ok := medEVM[r.stream]; ok && r.evm < med-m.b.EVMDegradeDB {
			out = append(out, Anomaly{
				Check: "evm-degradation", AP: -1, Stream: r.stream, Seq: r.seq,
				Value: units.Ratio(r.evm, 1), Threshold: units.Ratio(med-m.b.EVMDegradeDB, 1),
				Msg: fmt.Sprintf("evm-degradation: stream %d EVM SNR %.1f dB is >%.0f dB below its median (%.1f dB) at t=%d",
					r.stream, r.evm, m.b.EVMDegradeDB, med, r.at),
			})
		}
	}

	// Packets dropped after exhausting retransmissions.
	for _, r := range m.rtx {
		out = append(out, Anomaly{
			Check: "packet-failure", AP: -1, Stream: r.stream, Seq: r.seq,
			Msg: fmt.Sprintf("packet-failure: stream %d packet %d dropped after max attempts at t=%d",
				r.stream, r.pkt, r.at),
		})
	}
	return out
}
