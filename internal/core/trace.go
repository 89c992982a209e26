package core

import (
	"fmt"
	"strings"
	"sync"

	"megamimo/internal/metrics"
	"megamimo/internal/units"
)

// Trace event kinds: the closed vocabulary of the protocol timeline.
// Kind values are part of the versioned trace format (tracefmt.SchemaVersion;
// megamimo-trace and its gate drills key on them), so they are
// exported constants rather than ad-hoc strings, and the tracer rejects —
// and counts — anything outside the set.
const (
	// KindMeasure marks channel-measurement protocol steps (§5.1); the
	// whole measurement phase is one span of this kind.
	KindMeasure = "measure"
	// KindSyncHeader marks the lead AP's sync-header emission (§5.2).
	KindSyncHeader = "sync-header"
	// KindSlaveRatio marks a slave's phase-correction measurement (§5.2b).
	// Its attrs carry the phase-sync telemetry: the residual phase error
	// (innovation against the long-term CFO prediction) and the current
	// CFO estimate toward the lead.
	KindSlaveRatio = "slave-ratio"
	// KindJointTx spans a joint data transmission (§5.2c) from sync header
	// to the end of the data frame.
	KindJointTx = "joint-tx"
	// KindDecode marks one client antenna's decode outcome with its
	// error-vector SNR telemetry.
	KindDecode = "decode"
	// KindFeedback marks wireless CSI feedback traffic (§5.1b). Nothing
	// emits it: CSI rides the modeled backbone. It stays in the v1
	// vocabulary so v1 traces and readers are unchanged.
	KindFeedback = "feedback"
	// KindTraffic marks workload-engine run boundaries (internal/traffic).
	KindTraffic = "traffic"
	// KindMetrics marks telemetry snapshots (internal/metrics exports).
	KindMetrics = "metrics"
	// KindRound spans one MAC service round (internal/mac): grouping,
	// joint transmission, asynchronous ACK collection, queue update.
	KindRound = "round"
	// KindNullDepth marks a zero-forcing null-depth measurement at a
	// victim stream (§11.1c).
	KindNullDepth = "null-depth"
	// KindRetransmit marks a packet that was not ACKed, with its cause.
	KindRetransmit = "retransmit"
	// KindDemand marks workload arrivals entering the shared queue
	// (internal/traffic).
	KindDemand = "demand"
	// KindFault marks an injected or detected fault: AP crash, backend
	// loss/delay window, sync-header corruption, a slave abstaining from a
	// joint transmission, a degraded (N−1) round, client departure.
	KindFault = "fault"
	// KindRecovery marks the matching recovery: AP restart, lead
	// failover completing, client rejoin.
	KindRecovery = "recovery"
)

// validKinds is the closed set ValidKind and emit check against.
var validKinds = map[string]bool{
	KindMeasure:    true,
	KindSyncHeader: true,
	KindSlaveRatio: true,
	KindJointTx:    true,
	KindDecode:     true,
	KindFeedback:   true,
	KindTraffic:    true,
	KindMetrics:    true,
	KindRound:      true,
	KindNullDepth:  true,
	KindRetransmit: true,
	KindDemand:     true,
	KindFault:      true,
	KindRecovery:   true,
}

// ValidKind reports whether kind belongs to the trace vocabulary.
func ValidKind(kind string) bool { return validKinds[kind] }

// Kinds returns the full trace vocabulary in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(validKinds))
	for _, k := range []string{
		KindDecode, KindDemand, KindFault, KindFeedback, KindJointTx,
		KindMeasure, KindMetrics, KindNullDepth, KindRecovery,
		KindRetransmit, KindRound, KindSlaveRatio, KindSyncHeader,
		KindTraffic,
	} {
		out = append(out, k)
	}
	return out
}

// Event phases: instant events and span boundaries. The values follow the
// Chrome trace-event format so the exporter maps them directly.
const (
	// PhInstant is a point event.
	PhInstant byte = 'i'
	// PhBegin opens a span.
	PhBegin byte = 'B'
	// PhEnd closes a span.
	PhEnd byte = 'E'
)

// TraceAttrs is the fixed, machine-readable attribute block carried by
// every trace event — schema v1 of the flight-recorder format (described
// in DESIGN.md §8 and frozen by the tracefields lint analyzer; adding or
// retyping a field requires bumping tracefmt.SchemaVersion and the
// analyzer's schema table together).
//
// There is deliberately no map: the schema is closed so exports are
// byte-stable and tooling never discovers surprise keys. Fields are
// interpreted per kind — a consumer reads only the fields its event kind
// defines (e.g. PhaseErrRad on slave-ratio events, EVMSNRdB on decode
// events); everything else keeps its zero value.
type TraceAttrs struct {
	// AP is the access-point index the event concerns.
	AP int
	// Client is the client index the event concerns.
	Client int
	// Stream is the destination stream (client antenna) index.
	Stream int
	// Pkt is the MAC packet sequence number.
	Pkt int64
	// QueueDepth is the shared downlink queue occupancy.
	QueueDepth int
	// Bits counts payload bits involved in the event.
	Bits int64
	// PhaseErrRad is the residual phase error in radians: on slave-ratio
	// events, the innovation of the measured inter-oscillator phase
	// against the long-term CFO prediction — the quantity the paper's
	// π/18 nulling budget bounds.
	PhaseErrRad units.Radians
	// CFORadPerSample is a carrier-frequency-offset estimate in radians
	// per ether sample (slave→lead on slave-ratio events, residual after
	// correction on decode events).
	CFORadPerSample units.RadPerSample
	// EVMSNRdB is the post-equalization error-vector SNR in dB.
	EVMSNRdB units.Decibels
	// MinSubSNRdB is the worst per-subcarrier error-vector SNR in dB —
	// the compact per-subcarrier EVM summary (a collapsed null shows up
	// here first).
	MinSubSNRdB units.Decibels
	// NullDepthDB is the zero-forcing null depth in dB (−INR; larger is
	// deeper).
	NullDepthDB units.Decibels
	// OK flags the event's outcome (decode FCS, span success).
	OK bool
	// Cause names a failure or retransmit reason ("no-ack",
	// "max-attempts", "decode").
	Cause string
}

// TraceEvent is one structured protocol event.
type TraceEvent struct {
	// Seq is the tracer-assigned emission sequence number (gap-free per
	// recording until the ring overflows).
	Seq int64
	// At is the ether sample time the event refers to.
	At int64
	// Kind is one of the Kind* constants above.
	Kind string
	// Ph is the event phase: PhInstant, PhBegin or PhEnd.
	Ph byte
	// Span ties the event to a span: for PhBegin/PhEnd it is the span's
	// own ID; for instants it is the innermost span open at emission time
	// (0 = none).
	Span int64
	// Attrs is the fixed typed attribute block.
	Attrs TraceAttrs
	// Msg is the optional human-readable detail.
	Msg string
}

// SpanID identifies one span within a recording; 0 is the null span.
type SpanID int64

// TraceSink receives a live copy of every event the Tracer records, in
// emission (seq) order, the moment it enters the ring. A sink turns the
// flight recorder from a post-hoc ring into a streaming pipeline: the ring
// keeps the bounded recent tail for in-process readers (Events) while the
// sink sees the unbounded full stream (including events the ring later
// displaces).
//
// ConsumeTrace is called with the tracer's mutex held, from whatever
// goroutine emitted the event (a Network is single-threaded, so for one
// network that is one goroutine). Implementations must be fast, must not
// call back into the Tracer, and own their own synchronization if they
// are shared across tracers.
type TraceSink interface {
	ConsumeTrace(e TraceEvent)
}

// teeSink fans events out to several sinks in order.
type teeSink struct{ sinks []TraceSink }

func (t teeSink) ConsumeTrace(e TraceEvent) {
	for _, s := range t.sinks {
		s.ConsumeTrace(e)
	}
}

// TeeSinks combines sinks into one that forwards every event to each
// non-nil sink in argument order. Nil (and no) sinks collapse to nil.
func TeeSinks(sinks ...TraceSink) TraceSink {
	out := make([]TraceSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return teeSink{sinks: out}
}

// spanFrame is one open span on the tracer's stack.
type spanFrame struct {
	id   SpanID
	kind string
}

// Tracer is the flight recorder: a bounded ring of structured events. The
// zero value discards everything; call Enable to start recording. It is
// safe for concurrent use (parallel experiment workers may share one),
// though each Network normally owns its own.
type Tracer struct {
	mu       sync.Mutex
	enabled  bool
	limit    int
	buf      []TraceEvent
	head     int // oldest element once the ring is full
	seq      int64
	next     SpanID
	active   []spanFrame
	dropped  int64
	overflow int64

	// sink, when set, receives every validated event as it is recorded.
	// It deliberately survives Enable: a long-lived streaming pipeline
	// keeps observing across recording resets, while the ring starts over.
	sink TraceSink

	// Optional observability-of-the-observer hooks, wired by the owning
	// Network to its metrics registry.
	dropCtr     *metrics.Counter
	overflowCtr *metrics.Counter
}

// Enable starts a fresh recording holding up to limit events (0 = 4096).
// When the ring fills, the oldest events are overwritten so the most
// recent `limit` events — the interesting tail — are always retained;
// the trace_overflow_total metric counts how many were displaced.
func (t *Tracer) Enable(limit int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if limit <= 0 {
		limit = 4096
	}
	t.enabled = true
	t.limit = limit
	t.buf = t.buf[:0]
	t.head = 0
	t.seq = 0
	t.next = 0
	t.active = t.active[:0]
	t.dropped = 0
	t.overflow = 0
}

// SetSink attaches (or with nil, detaches) a live event sink. The sink
// receives every validated event in seq order, including events the ring
// later displaces, and is invoked under the tracer's mutex — see the
// TraceSink contract. Unlike the ring, the sink survives Enable.
func (t *Tracer) SetSink(s TraceSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// TracerState is the serializable part of the flight recorder: the event
// and span counters a resumed run must continue from so a streamed trace
// stays byte-identical across the checkpoint boundary. The ring buffer
// itself is deliberately not captured — the resumed ring restarts empty
// and only holds post-resume events; the streaming sink is the
// byte-identical surface.
type TracerState struct {
	Seq      int64 `json:"seq"`
	NextSpan int64 `json:"next_span"`
	Dropped  int64 `json:"dropped,omitempty"`
	Overflow int64 `json:"overflow,omitempty"`
}

// Snapshot captures the tracer counters. It fails when any span is open:
// checkpoints are only taken at quiescent round boundaries, and a snapshot
// with a live span could never restore its matching End.
func (t *Tracer) Snapshot() (TracerState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) > 0 {
		return TracerState{}, fmt.Errorf("core: tracer snapshot with %d open span(s); checkpoint only at round boundaries", len(t.active))
	}
	return TracerState{
		Seq:      t.seq,
		NextSpan: int64(t.next),
		Dropped:  t.dropped,
		Overflow: t.overflow,
	}, nil
}

// RestoreSnapshot overwrites the tracer counters and empties the ring, so
// the next recorded event continues the interrupted run's seq/span
// numbering exactly. The sink attachment is untouched (attach it after
// restoring, or the rebuild's events would leak into the stream).
func (t *Tracer) RestoreSnapshot(st TracerState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = t.buf[:0]
	t.head = 0
	t.active = t.active[:0]
	t.seq = st.Seq
	t.next = SpanID(st.NextSpan)
	t.dropped = st.Dropped
	t.overflow = st.Overflow
}

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enabled
}

// Events returns a copy of the recorded timeline, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.head:]...)
	out = append(out, t.buf[:t.head]...)
	return out
}

// Dropped returns the number of events rejected for a kind outside the
// vocabulary — the observer's own error counter (also exported as the
// trace_dropped_total metric when the tracer belongs to a Network).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emit records one instant event. Events with a kind outside the Kind*
// vocabulary are rejected and counted (Dropped, trace_dropped_total), so
// the timeline stays machine-parseable and the drop is visible. The
// message is formatted only when the tracer is enabled.
func (t *Tracer) Emit(at int64, kind string, a TraceAttrs, format string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(at, kind, PhInstant, 0, a, format, args...)
}

// BeginSpan opens a span and records its begin event. Instants emitted
// before the matching EndSpan attach to it. Returns 0 (a no-op handle)
// when the tracer is disabled or the kind is invalid.
func (t *Tracer) BeginSpan(at int64, kind string, a TraceAttrs, format string, args ...any) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	if !validKinds[kind] {
		t.dropLocked()
		return 0
	}
	t.next++
	id := t.next
	t.active = append(t.active, spanFrame{id: id, kind: kind})
	t.recordLocked(at, kind, PhBegin, int64(id), a, format, args...)
	return id
}

// EndSpan closes a span opened by BeginSpan. EndSpan(0, …) is a no-op.
func (t *Tracer) EndSpan(id SpanID, at int64) {
	t.EndSpanAttrs(id, at, TraceAttrs{}, "")
}

// EndSpanAttrs closes a span and attaches outcome attributes to its end
// event.
func (t *Tracer) EndSpanAttrs(id SpanID, at int64, a TraceAttrs, format string, args ...any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return
	}
	for i := len(t.active) - 1; i >= 0; i-- {
		if t.active[i].id != id {
			continue
		}
		kind := t.active[i].kind
		t.active = append(t.active[:i], t.active[i+1:]...)
		t.recordLocked(at, kind, PhEnd, int64(id), a, format, args...)
		return
	}
}

// emitLocked validates and records one instant, attaching the innermost
// open span.
func (t *Tracer) emitLocked(at int64, kind string, ph byte, span int64, a TraceAttrs, format string, args ...any) {
	if !t.enabled {
		return
	}
	if !validKinds[kind] {
		t.dropLocked()
		return
	}
	if span == 0 && len(t.active) > 0 {
		span = int64(t.active[len(t.active)-1].id)
	}
	t.recordLocked(at, kind, ph, span, a, format, args...)
}

// dropLocked counts one unknown-kind rejection.
func (t *Tracer) dropLocked() {
	t.dropped++
	if t.dropCtr != nil {
		t.dropCtr.Inc()
	}
}

// recordLocked appends one validated event to the ring.
func (t *Tracer) recordLocked(at int64, kind string, ph byte, span int64, a TraceAttrs, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	e := TraceEvent{Seq: t.seq, At: at, Kind: kind, Ph: ph, Span: span, Attrs: a, Msg: msg}
	t.seq++
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.head] = e
		t.head = (t.head + 1) % t.limit
		t.overflow++
		if t.overflowCtr != nil {
			t.overflowCtr.Inc()
		}
	}
	if t.sink != nil {
		t.sink.ConsumeTrace(e)
	}
}

// String renders one event for the human timeline: one line of
// megamimo-trace timeline, which prints a -trace-out file.
func (e TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-12d %-12s", e.At, e.Kind)
	switch e.Ph {
	case PhBegin:
		b.WriteString(" [begin")
	case PhEnd:
		b.WriteString(" [end")
	default:
		if e.Span > 0 {
			fmt.Fprintf(&b, " [in s%d]", e.Span)
		}
	}
	if e.Ph == PhBegin || e.Ph == PhEnd {
		fmt.Fprintf(&b, " s%d]", e.Span)
	}
	if e.Msg != "" {
		b.WriteString(" ")
		b.WriteString(e.Msg)
	}
	return b.String()
}

// Trace returns the network's tracer (always non-nil).
func (n *Network) Trace() *Tracer {
	if n.tracer == nil {
		n.initTracer()
	}
	return n.tracer
}

// initTracer builds the tracer with its self-observability counters.
func (n *Network) initTracer() {
	n.tracer = &Tracer{}
	if n.metrics != nil {
		n.tracer.dropCtr = n.metrics.Counter("trace_dropped_total")
		n.tracer.overflowCtr = n.metrics.Counter("trace_overflow_total")
	}
}

// trace emits one instant event from inside the protocol (nil-safe).
func (n *Network) trace(at int64, kind string, a TraceAttrs, format string, args ...any) {
	//lint:ignore tracefields forwarding wrapper; callers pass Kind* constants and Emit re-validates
	n.tracer.Emit(at, kind, a, format, args...)
}
