package core

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsProtocolTimeline(t *testing.T) {
	n := buildNet(t, 2, 2, 20, 25, 140)
	n.Trace().Enable(200)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{make([]byte, 200), make([]byte, 200)}
	if _, err := n.JointTransmit(payloads, 0); err != nil {
		t.Fatal(err)
	}
	evs := n.Trace().Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]bool{}
	var prev int64 = -1
	open := map[int64]string{} // span id → kind
	for _, e := range evs {
		kinds[e.Kind] = true
		if e.At < prev {
			t.Fatalf("timeline not monotone: %v", e)
		}
		prev = e.At
		if !strings.Contains(e.String(), e.Kind) {
			t.Fatalf("String missing kind: %q", e.String())
		}
		switch e.Ph {
		case PhBegin:
			if e.Span == 0 {
				t.Fatalf("begin event without span id: %+v", e)
			}
			open[e.Span] = e.Kind
		case PhEnd:
			if open[e.Span] != e.Kind {
				t.Fatalf("end event %+v closes span of kind %q", e, open[e.Span])
			}
			delete(open, e.Span)
		case PhInstant:
		default:
			t.Fatalf("unknown phase %q in %+v", string(e.Ph), e)
		}
	}
	if len(open) != 0 {
		t.Fatalf("unbalanced spans left open: %v", open)
	}
	for _, want := range []string{"measure", "sync-header", "slave-ratio", "joint-tx", "decode"} {
		if !kinds[want] {
			t.Fatalf("missing %q events (got %v)", want, kinds)
		}
	}
}

// TestTracerSlaveRatioTelemetry checks the phase-sync telemetry rides on
// the slave-ratio events: a finite residual and a CFO estimate close to
// the true inter-oscillator offset.
func TestTracerSlaveRatioTelemetry(t *testing.T) {
	n := buildNet(t, 2, 2, 20, 25, 143)
	n.Trace().Enable(500)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{make([]byte, 200), make([]byte, 200)}
	for i := 0; i < 3; i++ {
		if _, err := n.JointTransmit(payloads, 0); err != nil {
			t.Fatal(err)
		}
	}
	lead, slave := n.Lead(), n.Slaves()[0]
	// The sync peer states CFO estimates ω_peer − ω_self = ω_lead − ω_slave.
	trueCFO := lead.Node.Osc.CFORadPerSample() - slave.Node.Osc.CFORadPerSample()
	seen := 0
	for _, e := range n.Trace().Events() {
		if e.Kind != KindSlaveRatio {
			continue
		}
		seen++
		if e.Attrs.AP != slave.Index {
			t.Fatalf("slave-ratio event for AP %d, want %d", e.Attrs.AP, slave.Index)
		}
		if d := e.Attrs.CFORadPerSample - trueCFO; d > 1e-4 || d < -1e-4 {
			t.Errorf("CFO attr %.3e, true %.3e", e.Attrs.CFORadPerSample, trueCFO)
		}
		if e.Attrs.PhaseErrRad > 1 || e.Attrs.PhaseErrRad < -1 {
			t.Errorf("implausible phase residual %.3f rad", e.Attrs.PhaseErrRad)
		}
	}
	if seen == 0 {
		t.Fatal("no slave-ratio events")
	}
}

func TestTracerDisabledIsFree(t *testing.T) {
	n := buildNet(t, 2, 2, 20, 25, 141)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	if evs := n.Trace().Events(); len(evs) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(evs))
	}
}

// TestTracerRing checks the satellite fix: at the limit the tracer keeps
// the most recent events (the interesting tail), not the oldest, and
// counts the overflow.
func TestTracerRing(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(8)
	for i := 0; i < 20; i++ {
		tr.Emit(int64(i), KindTraffic, TraceAttrs{Pkt: int64(i)}, "")
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := int64(12 + i); e.At != want || e.Attrs.Pkt != want || e.Seq != want {
			t.Fatalf("ring slot %d = %+v, want the tail event t=%d", i, e, want)
		}
	}
	if st, err := tr.Snapshot(); err != nil || st.Overflow != 12 {
		t.Fatalf("Snapshot().Overflow = %d (%v), want 12", st.Overflow, err)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0", got)
	}
}

// TestTracerLimitDuringProtocol keeps the end-to-end flavor of the old
// limit test: a tiny ring over a real measurement keeps only `limit`
// events and reports the displaced count.
func TestTracerLimitDuringProtocol(t *testing.T) {
	n := buildNet(t, 2, 2, 20, 25, 142)
	n.Trace().Enable(2)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	evs := n.Trace().Events()
	if len(evs) != 2 {
		t.Fatalf("limit ignored: %d events", len(evs))
	}
	// The retained tail must be the *latest* events.
	if n.Metrics().Counter("trace_overflow_total").Value() == 0 {
		t.Fatal("expected trace_overflow_total to count overflow on a 2-event ring")
	}
	if evs[0].Seq+1 != evs[1].Seq {
		t.Fatalf("tail not contiguous: %+v", evs)
	}
}

func TestTraceKindConstantsAreValid(t *testing.T) {
	for _, k := range Kinds() {
		if !ValidKind(k) {
			t.Errorf("exported kind constant %q not in the valid set", k)
		}
	}
	if len(Kinds()) != 14 {
		t.Errorf("Kinds() lists %d kinds, want 14", len(Kinds()))
	}
	if ValidKind("") || ValidKind("Joint-Tx") || ValidKind("joint_tx") {
		t.Error("ValidKind accepted a kind outside the vocabulary")
	}
}

func TestTracerRejectsUnknownKinds(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(16)
	tr.Emit(1, "bogus-kind", TraceAttrs{}, "must be dropped")
	tr.Emit(2, "JOINT-TX", TraceAttrs{}, "case matters; must be dropped")
	if id := tr.BeginSpan(3, "bogus-span", TraceAttrs{}, ""); id != 0 {
		t.Fatalf("BeginSpan accepted an unknown kind (id %d)", id)
	}
	tr.Emit(4, KindTraffic, TraceAttrs{}, "legit workload event %d", 7)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want only the valid one: %v", len(evs), evs)
	}
	if evs[0].Kind != KindTraffic || !strings.Contains(evs[0].Msg, "legit workload event 7") {
		t.Fatalf("surviving event wrong: %+v", evs[0])
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
}

// TestTraceDroppedMetric checks the observer's own error counter reaches
// the network metrics registry (trace_dropped_total).
func TestTraceDroppedMetric(t *testing.T) {
	n := buildNet(t, 2, 2, 20, 25, 144)
	n.Trace().Enable(16)
	n.Trace().Emit(1, "not-a-kind", TraceAttrs{}, "")
	if got := n.Metrics().Counter("trace_dropped_total").Value(); got != 1 {
		t.Fatalf("trace_dropped_total = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		n.Trace().Emit(int64(i), KindMetrics, TraceAttrs{}, "")
	}
	if got := n.Metrics().Counter("trace_overflow_total").Value(); got != 4 {
		t.Fatalf("trace_overflow_total = %d, want 4", got)
	}
}

// TestTracerSpansAttachInstants checks instants inherit the innermost
// open span and EndSpan pops the right frame even out of order.
func TestTracerSpansAttachInstants(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(32)
	outer := tr.BeginSpan(0, KindRound, TraceAttrs{}, "")
	inner := tr.BeginSpan(1, KindJointTx, TraceAttrs{}, "")
	tr.Emit(2, KindDecode, TraceAttrs{}, "")
	tr.EndSpan(inner, 3)
	tr.Emit(4, KindRetransmit, TraceAttrs{}, "")
	tr.EndSpan(outer, 5)
	tr.Emit(6, KindTraffic, TraceAttrs{}, "")
	evs := tr.Events()
	byAt := map[int64]TraceEvent{}
	for _, e := range evs {
		byAt[e.At] = e
	}
	if got := byAt[2].Span; got != int64(inner) {
		t.Errorf("instant inside inner span has span %d, want %d", got, inner)
	}
	if got := byAt[4].Span; got != int64(outer) {
		t.Errorf("instant after inner end has span %d, want %d", got, outer)
	}
	if got := byAt[6].Span; got != 0 {
		t.Errorf("instant outside spans has span %d, want 0", got)
	}
	if byAt[3].Kind != KindJointTx || byAt[3].Ph != PhEnd {
		t.Errorf("inner end event wrong: %+v", byAt[3])
	}
	// Ending an unknown / already-closed span is a no-op.
	tr.EndSpan(inner, 7)
	tr.EndSpan(0, 8)
	if got := len(tr.Events()); got != len(evs) {
		t.Errorf("no-op EndSpan recorded events: %d -> %d", len(evs), got)
	}
}

// TestTracerConcurrentSpans exercises concurrent begin/emit/end from
// parallel workers under -race (experiment workers may share a tracer).
func TestTracerConcurrentSpans(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := tr.BeginSpan(int64(i), KindRound, TraceAttrs{AP: w}, "")
				tr.Emit(int64(i), KindDecode, TraceAttrs{AP: w}, "")
				tr.EndSpan(id, int64(i)+1)
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 8*50*3 {
		t.Fatalf("recorded %d events, want %d", len(evs), 8*50*3)
	}
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// collectSink is a test TraceSink that keeps every event it is handed.
type collectSink struct{ evs []TraceEvent }

func (c *collectSink) ConsumeTrace(e TraceEvent) { c.evs = append(c.evs, e) }

// TestTracerSinkSeesFullStream checks the streaming contract: a sink
// receives every validated event in seq order, including events the ring
// later displaces, and skips rejected kinds.
func TestTracerSinkSeesFullStream(t *testing.T) {
	tr := &Tracer{}
	sink := &collectSink{}
	tr.SetSink(sink)
	tr.Enable(4)
	for i := 0; i < 10; i++ {
		tr.Emit(int64(i), KindTraffic, TraceAttrs{Pkt: int64(i)}, "")
	}
	tr.Emit(10, "bogus-kind", TraceAttrs{}, "")
	if len(tr.Events()) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(tr.Events()))
	}
	if len(sink.evs) != 10 {
		t.Fatalf("sink saw %d events, want the full stream of 10", len(sink.evs))
	}
	for i, e := range sink.evs {
		if e.Seq != int64(i) || e.At != int64(i) {
			t.Fatalf("sink event %d = %+v, want seq/at %d", i, e, i)
		}
	}
}

// TestTracerSinkSurvivesEnable pins the pipeline semantics: Enable resets
// the ring and seq but keeps the attached sink observing.
func TestTracerSinkSurvivesEnable(t *testing.T) {
	tr := &Tracer{}
	sink := &collectSink{}
	tr.SetSink(sink)
	tr.Enable(8)
	tr.Emit(1, KindTraffic, TraceAttrs{}, "first window")
	tr.Enable(8)
	tr.Emit(2, KindTraffic, TraceAttrs{}, "second window")
	if len(sink.evs) != 2 {
		t.Fatalf("sink saw %d events across Enable, want 2", len(sink.evs))
	}
	if sink.evs[1].Seq != 0 {
		t.Fatalf("second window seq = %d, want a fresh 0 after Enable", sink.evs[1].Seq)
	}
	tr.SetSink(nil)
	tr.Emit(3, KindTraffic, TraceAttrs{}, "after detach")
	if len(sink.evs) != 2 {
		t.Fatal("detached sink still receiving events")
	}
}

func TestTeeSinks(t *testing.T) {
	a, b := &collectSink{}, &collectSink{}
	if TeeSinks() != nil || TeeSinks(nil, nil) != nil {
		t.Fatal("empty tee should collapse to nil")
	}
	if got := TeeSinks(a); got != TraceSink(a) {
		t.Fatal("single-sink tee should return the sink itself")
	}
	tee := TeeSinks(a, nil, b)
	tee.ConsumeTrace(TraceEvent{Seq: 7, Kind: KindDecode})
	if len(a.evs) != 1 || len(b.evs) != 1 || a.evs[0].Seq != 7 || b.evs[0].Seq != 7 {
		t.Fatalf("tee fan-out wrong: a=%d b=%d", len(a.evs), len(b.evs))
	}
}
