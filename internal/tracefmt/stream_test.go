package tracefmt

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
)

// memSink collects events handed to a core.TraceSink for assertions.
type memSink struct {
	mu  sync.Mutex
	evs []core.TraceEvent
}

func (m *memSink) ConsumeTrace(e core.TraceEvent) {
	m.mu.Lock()
	m.evs = append(m.evs, e)
	m.mu.Unlock()
}

func (m *memSink) events() []core.TraceEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]core.TraceEvent(nil), m.evs...)
}

// TestStreamSinkMatchesWriteJSONL is the byte-identity core: streaming the
// sample events through a StreamSink produces exactly the bytes WriteJSONL
// produces for the same (meta, events).
func TestStreamSinkMatchesWriteJSONL(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	var want bytes.Buffer
	if err := WriteJSONL(&want, meta, events); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	s, err := NewStreamSink(&got, meta, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.ConsumeTrace(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed JSONL differs from buffered WriteJSONL:\nstream: %q\nbuffer: %q",
			got.String(), want.String())
	}
	if s.Dropped() != 0 {
		t.Fatalf("block-policy sink dropped %d lines", s.Dropped())
	}
}

// TestStreamSinkHeaderFirst checks the stream is a valid trace file from
// its first byte: header precedes any event and round-trips the Meta.
func TestStreamSinkHeaderFirst(t *testing.T) {
	var buf bytes.Buffer
	meta := Meta{SampleRate: 10e6, CarrierHz: 2.437e9, APs: 3, Clients: 3,
		Sync: "beamsync", Overflowed: 5, OverflowAt: 1234}
	s, err := NewStreamSink(&buf, meta, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.ConsumeTrace(core.TraceEvent{Seq: 0, At: 1, Kind: core.KindTraffic, Ph: core.PhInstant})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gotMeta, evs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v want %+v", gotMeta, meta)
	}
	if len(evs) != 1 || evs[0].Kind != core.KindTraffic {
		t.Fatalf("events round-trip: %+v", evs)
	}
}

// TestStreamSinkDropOldest checks the lossy policy: a full queue evicts
// the oldest line, counts it, and keeps the newest events.
func TestStreamSinkDropOldest(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("trace_sink_dropped_total")
	blocked := make(chan struct{})
	var buf bytes.Buffer
	bw := &gatedWriter{w: &buf, gate: blocked}
	s, err := NewStreamSink(bw, Meta{}, StreamOptions{
		Policy: SinkDropOldest, Queue: 2, Dropped: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The writer goroutine is blocked on the gate, so lines pile up in the
	// queue: capacity 2 admits the first batch, then evictions begin.
	for i := 0; i < 6; i++ {
		s.ConsumeTrace(core.TraceEvent{Seq: int64(i), At: int64(i), Kind: core.KindTraffic})
	}
	close(blocked)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() == 0 {
		t.Fatal("drop-oldest under a stalled writer dropped nothing")
	}
	if ctr.Value() != s.Dropped() {
		t.Fatalf("dropped counter %d != sink count %d", ctr.Value(), s.Dropped())
	}
	_, evs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events survived")
	}
	if last := evs[len(evs)-1].Seq; last != 5 {
		t.Fatalf("newest event lost: last seq %d, want 5", last)
	}
}

// gatedWriter blocks its first Write until gate closes, simulating a slow
// downstream consumer.
type gatedWriter struct {
	w    *bytes.Buffer
	gate chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	return g.w.Write(p)
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestStreamSinkWriteError checks a failing writer surfaces via Err/Close
// and does not wedge blocked producers.
func TestStreamSinkWriteError(t *testing.T) {
	s, err := NewStreamSink(errWriter{}, Meta{}, StreamOptions{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.ConsumeTrace(core.TraceEvent{Seq: int64(i), Kind: core.KindTraffic})
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil after write errors")
	}
}

// mergeTraces is the batch oracle for StreamMerge: per-cell recordings
// concatenated in cell-index order, seq renumbered from 0, span IDs offset
// by the running per-cell maximum so they stay unique.
func mergeTraces(cells ...[]core.TraceEvent) []core.TraceEvent {
	var out []core.TraceEvent
	var seq, spanBase int64
	for _, evs := range cells {
		var maxSpan int64
		for _, e := range evs {
			if e.Span > maxSpan {
				maxSpan = e.Span
			}
			e.Seq = seq
			seq++
			if e.Span > 0 {
				e.Span += spanBase
			}
			out = append(out, e)
		}
		spanBase += maxSpan
	}
	return out
}

// TestStreamMergeRenumbers checks the merged numbering on two live
// tracers: seq restarts at 0 and runs gap-free across cells, span IDs do
// not collide across cells, and an instant keeps pointing at its own
// cell's (offset) span.
func TestStreamMergeRenumbers(t *testing.T) {
	out := &memSink{}
	m := NewStreamMerge(out, 2)
	a, b := &core.Tracer{}, &core.Tracer{}
	a.SetSink(m.Cell(0))
	b.SetSink(m.Cell(1))
	a.Enable(16)
	b.Enable(16)
	sb := b.BeginSpan(0, core.KindRound, core.TraceAttrs{}, "cell b")
	b.Emit(1, core.KindDecode, core.TraceAttrs{}, "")
	b.EndSpan(sb, 2)
	m.CloseCell(1)
	sa := a.BeginSpan(0, core.KindRound, core.TraceAttrs{}, "cell a")
	a.EndSpan(sa, 1)
	m.CloseCell(0)

	merged := out.events()
	if len(merged) != 5 {
		t.Fatalf("merged %d events, want 5", len(merged))
	}
	for i, e := range merged {
		if e.Seq != int64(i) {
			t.Fatalf("merged seq not renumbered: %+v at %d", e, i)
		}
	}
	if merged[0].Msg != "cell a" || merged[2].Msg != "cell b" {
		t.Fatalf("cells out of index order: %+v", merged)
	}
	if merged[0].Span == merged[2].Span {
		t.Fatal("span ids collide across cells")
	}
	if merged[3].Span != merged[2].Span {
		t.Fatal("cell b instant lost its span after offsetting")
	}
}

// TestStreamMergeMatchesMergeTraces feeds three cells' events through a
// StreamMerge in an adversarial interleaving (cells closing out of order,
// late cells streaming before the frontier finishes) and checks the output
// equals the batch mergeTraces of the same per-cell recordings.
func TestStreamMergeMatchesMergeTraces(t *testing.T) {
	mkCell := func(seed int64, n int) []core.TraceEvent {
		tr := &core.Tracer{}
		tr.Enable(64)
		for i := 0; i < n; i++ {
			sp := tr.BeginSpan(seed+int64(10*i), core.KindRound, core.TraceAttrs{AP: int(seed)}, "cell")
			tr.Emit(seed+int64(10*i+1), core.KindDecode, core.TraceAttrs{OK: true}, "")
			tr.EndSpan(sp, seed+int64(10*i+2))
		}
		return tr.Events()
	}
	cells := [][]core.TraceEvent{mkCell(100, 3), mkCell(200, 2), mkCell(300, 4)}
	want := mergeTraces(cells[0], cells[1], cells[2])

	out := &memSink{}
	m := NewStreamMerge(out, 3)
	// Cell 2 streams fully first, then closes; cell 1 streams and closes;
	// cell 0 (the frontier) streams last — everything must still come out
	// in cell-index order with the oracle's numbering.
	for _, e := range cells[2] {
		m.Cell(2).ConsumeTrace(e)
	}
	m.CloseCell(2)
	for _, e := range cells[1] {
		m.Cell(1).ConsumeTrace(e)
	}
	m.CloseCell(1)
	for _, e := range cells[0] {
		m.Cell(0).ConsumeTrace(e)
	}
	m.CloseCell(0)

	got := out.events()
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStreamMergeLiveFrontier checks the frontier passes through without
// buffering and late closes advance across multiple already-closed cells.
func TestStreamMergeLiveFrontier(t *testing.T) {
	out := &memSink{}
	m := NewStreamMerge(out, 3)
	m.Cell(0).ConsumeTrace(core.TraceEvent{Seq: 0, At: 1, Kind: core.KindTraffic})
	if n := len(out.events()); n != 1 {
		t.Fatalf("frontier event buffered (saw %d downstream)", n)
	}
	m.Cell(1).ConsumeTrace(core.TraceEvent{Seq: 0, At: 2, Kind: core.KindTraffic})
	if n := len(out.events()); n != 1 {
		t.Fatal("non-frontier event leaked downstream before its turn")
	}
	m.CloseCell(1)
	m.CloseCell(2)
	m.CloseCell(0) // closes the frontier; cells 1 and 2 drain in order
	got := out.events()
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	if got[1].At != 2 || got[1].Seq != 1 {
		t.Fatalf("cell-1 event misplaced: %+v", got[1])
	}
	// Events after close are discarded, not re-ordered.
	m.Cell(0).ConsumeTrace(core.TraceEvent{Seq: 9, Kind: core.KindTraffic})
	if len(out.events()) != 2 {
		t.Fatal("event for a closed cell was forwarded")
	}
	// A nil merge is an untraced sweep.
	var untraced *StreamMerge
	if untraced.Cell(0) != nil {
		t.Fatal("nil merge handed out a sink")
	}
	untraced.CloseCell(0)
}
