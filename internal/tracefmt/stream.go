package tracefmt

import (
	"bufio"
	"io"
	"sync"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
)

// Streaming trace pipeline: StreamSink serializes events to JSONL as they
// are recorded (WriteJSONL is the same sink over a finished slice), and
// StreamMerge is the one merge of a multi-cell trace: it interleaves the
// cells' streams online in a fixed cell order, so the merged trace is
// byte-identical at any worker count.

// StreamOptions configures a StreamSink.
type StreamOptions struct {
	// Offset, when non-zero, continues an earlier stream at that logical
	// byte position: no header is written, and Bytes counts on from it.
	Offset uint64
	// Dropped, when set, is incremented once per event line lost to a
	// failed writer (the trace_sink_dropped_total metric).
	Dropped *metrics.Counter
}

// StreamSink is the JSONL trace writer, a core.TraceSink that writes
// synchronously: ConsumeTrace encodes each event with MarshalEvent and
// writes the line to a buffered writer under the sink's mutex. WriteJSONL
// is the same sink over a finished slice. The ether clock is simulated,
// so writing on the record path distorts nothing.
//
// The stream's logical position (Bytes) advances by every encoded line,
// even after the writer has failed, so a position recorded mid-run is a
// pure function of the simulation. A StreamSink is safe for concurrent
// producers.
type StreamSink struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	n       uint64
	dropped int64
	dropCtr *metrics.Counter
	err     error
	closed  bool
}

// NewStreamSink starts a stream on w: the header line for meta first,
// unless opts.Offset continues an earlier stream. Call Close to flush.
func NewStreamSink(w io.Writer, meta Meta, opts StreamOptions) (*StreamSink, error) {
	s := &StreamSink{bw: bufio.NewWriter(w), n: opts.Offset, dropCtr: opts.Dropped}
	if opts.Offset == 0 {
		line, err := MarshalHeader(meta)
		if err != nil {
			return nil, err
		}
		if _, err := s.bw.Write(line); err != nil {
			return nil, err
		}
		s.n = uint64(len(line))
	}
	return s, nil
}

// ConsumeTrace encodes one event and writes its line. Once the stream has
// failed (a write or an encode error), each further line is counted in
// Bytes and in Dropped but not written. Events after Close are
// discarded; an invalid kind records the error (the tracer never hands a
// sink one).
func (s *StreamSink) ConsumeTrace(e core.TraceEvent) {
	line, err := MarshalEvent(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.n += uint64(len(line))
	if s.err == nil {
		_, s.err = s.bw.Write(line)
	}
	if s.err != nil {
		s.dropped++
		if s.dropCtr != nil {
			s.dropCtr.Inc()
		}
	}
}

// Bytes returns the logical stream position: the offset the sink started
// from plus every header and event line it encoded.
func (s *StreamSink) Bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Close flushes the stream and returns the first error it hit (encode,
// write, or flush).
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if ferr := s.bw.Flush(); ferr != nil && s.err == nil {
		s.err = ferr
	}
	return s.err
}

// Dropped returns the number of event lines lost to a failed writer.
func (s *StreamSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// StreamMerge multiplexes per-cell event streams into one downstream sink
// in a deterministic order: cells in index order, seq renumbered from 0,
// span IDs offset by the running per-cell maximum (so they stay unique
// across cells and instants keep pointing at their own cell's spans). The
// frontier cell's events pass through live; later cells buffer until
// every earlier cell has closed — so with workers=1 nothing ever buffers,
// and with workers=N the downstream bytes are identical.
//
// A nil *StreamMerge is an untraced sweep: Cell returns a nil sink and
// CloseCell does nothing.
type StreamMerge struct {
	mu       sync.Mutex
	out      core.TraceSink
	cells    []mergeCell
	frontier int
	seq      int64
	spanBase int64
}

// mergeCell is one cell's merge state.
type mergeCell struct {
	buf     []core.TraceEvent
	closed  bool
	maxSpan int64 // largest pre-offset span ID forwarded so far
}

// NewStreamMerge builds a merge over `cells` input streams feeding out.
func NewStreamMerge(out core.TraceSink, cells int) *StreamMerge {
	return &StreamMerge{out: out, cells: make([]mergeCell, cells)}
}

// Cell returns the sink for cell index i; attach it to that cell's tracer
// (Tracer.SetSink). Events sent to an out-of-range or closed cell are
// discarded.
func (m *StreamMerge) Cell(i int) core.TraceSink {
	if m == nil {
		return nil
	}
	return cellSink{m: m, i: i}
}

// cellSink tags incoming events with their cell index.
type cellSink struct {
	m *StreamMerge
	i int
}

func (c cellSink) ConsumeTrace(e core.TraceEvent) { c.m.consume(c.i, e) }

// consume routes one event: forward live at the frontier, buffer behind it.
func (m *StreamMerge) consume(i int, e core.TraceEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.cells) || m.cells[i].closed {
		return
	}
	if i == m.frontier {
		m.forwardLocked(i, e)
		return
	}
	m.cells[i].buf = append(m.cells[i].buf, e)
}

// forwardLocked renumbers one event into the merged numbering and hands
// it downstream.
func (m *StreamMerge) forwardLocked(i int, e core.TraceEvent) {
	if e.Span > m.cells[i].maxSpan {
		m.cells[i].maxSpan = e.Span
	}
	e.Seq = m.seq
	m.seq++
	if e.Span > 0 {
		e.Span += m.spanBase
	}
	m.out.ConsumeTrace(e)
}

// CloseCell declares cell i complete. When the frontier closes, the merge
// advances: each already-closed successor's buffer is flushed downstream
// in order. Close every cell (any order) to drain the merge completely.
func (m *StreamMerge) CloseCell(i int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.cells) || m.cells[i].closed {
		return
	}
	m.cells[i].closed = true
	for m.frontier < len(m.cells) && m.cells[m.frontier].closed {
		m.spanBase += m.cells[m.frontier].maxSpan
		m.frontier++
		if m.frontier < len(m.cells) {
			f := m.frontier
			for _, e := range m.cells[f].buf {
				m.forwardLocked(f, e)
			}
			m.cells[f].buf = nil
		}
	}
}
