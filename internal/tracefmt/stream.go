package tracefmt

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
)

// Streaming trace pipeline: StreamSink serializes events to JSONL as they
// are recorded (instead of waiting for the end-of-run ring export), and
// StreamMerge is the one merge of a multi-cell trace: it interleaves the
// cells' streams online in a fixed cell order, so the merged trace is
// byte-identical at any worker count.

// SinkPolicy selects what a full StreamSink queue does to new events.
type SinkPolicy int

const (
	// SinkBlock makes the emitting goroutine wait for queue space: lossless
	// and deterministic (the default — required for byte-identity with the
	// buffered export), at the price of coupling the simulation to the
	// writer's throughput.
	SinkBlock SinkPolicy = iota
	// SinkDropOldest evicts the oldest queued line to admit the new one,
	// counting the loss (Dropped, trace_sink_dropped_total): the simulation
	// never stalls, the stream keeps the newest events, but it is no longer
	// gap-free.
	SinkDropOldest
)

// String returns the policy's flag spelling.
func (p SinkPolicy) String() string {
	if p == SinkDropOldest {
		return "drop-oldest"
	}
	return "block"
}

// ParseSinkPolicy validates a -sink-policy flag value.
func ParseSinkPolicy(s string) (SinkPolicy, error) {
	switch s {
	case "block", "":
		return SinkBlock, nil
	case "drop-oldest":
		return SinkDropOldest, nil
	}
	return 0, fmt.Errorf("tracefmt: unknown sink policy %q (want block or drop-oldest)", s)
}

// StreamOptions configures a StreamSink's backpressure behavior.
type StreamOptions struct {
	// Policy is the full-queue behavior (default SinkBlock).
	Policy SinkPolicy
	// Queue bounds the number of encoded lines awaiting the writer
	// (0 = 4096).
	Queue int
	// Dropped, when set, is incremented once per line lost to
	// SinkDropOldest eviction (the trace_sink_dropped_total metric).
	Dropped *metrics.Counter
}

// StreamSink is a core.TraceSink that streams events as JSONL through a
// bounded queue serviced by one writer goroutine. The header line is
// written synchronously at construction, so the stream is a valid trace
// file from its first byte; each event line is encoded by MarshalEvent and
// therefore byte-identical to what WriteJSONL would emit.
//
// ConsumeTrace is called under the owning tracer's mutex; the sink only
// encodes and enqueues there (and, under SinkBlock, waits for space) —
// the actual I/O happens on the writer goroutine. A StreamSink is safe
// for concurrent producers (e.g. behind a StreamMerge it is driven by
// one goroutine; attached directly to several tracers it still works).
type StreamSink struct {
	mu      sync.Mutex
	space   sync.Cond // signaled when queue space frees up
	work    sync.Cond // signaled when lines or close arrive
	queue   [][]byte
	policy  SinkPolicy
	limit   int
	dropped int64
	dropCtr *metrics.Counter
	err     error
	closed  bool
	done    chan struct{}
	bw      *bufio.Writer
}

// NewStreamSink writes the header line for meta and starts the writer
// goroutine. Call Close to flush and stop it.
func NewStreamSink(w io.Writer, meta Meta, opts StreamOptions) (*StreamSink, error) {
	line, err := MarshalHeader(meta)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(line); err != nil {
		return nil, err
	}
	limit := opts.Queue
	if limit <= 0 {
		limit = 4096
	}
	s := &StreamSink{
		policy:  opts.Policy,
		limit:   limit,
		dropCtr: opts.Dropped,
		done:    make(chan struct{}),
		bw:      bw,
	}
	s.space.L = &s.mu
	s.work.L = &s.mu
	go s.writeLoop()
	return s, nil
}

// ConsumeTrace encodes one event and enqueues its line, applying the
// backpressure policy when the queue is full. Events after Close, after a
// write error, or with an invalid kind are discarded (invalid kinds also
// record the error; the tracer never hands a sink one).
func (s *StreamSink) ConsumeTrace(e core.TraceEvent) {
	line, err := MarshalEvent(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if s.closed || s.err != nil {
		return
	}
	for len(s.queue) >= s.limit {
		if s.policy == SinkDropOldest {
			s.queue = s.queue[1:]
			s.dropped++
			if s.dropCtr != nil {
				s.dropCtr.Inc()
			}
			break
		}
		s.space.Wait()
		if s.closed || s.err != nil {
			return
		}
	}
	s.queue = append(s.queue, line)
	s.work.Signal()
}

// writeLoop drains the queue onto the buffered writer until Close.
func (s *StreamSink) writeLoop() {
	defer close(s.done)
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.work.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.space.Broadcast()
		s.mu.Unlock()
		var werr error
		for _, line := range batch {
			if _, werr = s.bw.Write(line); werr != nil {
				break
			}
		}
		s.mu.Lock()
		if werr != nil && s.err == nil {
			s.err = werr
			s.space.Broadcast() // unblock producers; they now discard
		}
	}
}

// Close stops the writer after draining the queue, flushes, and returns
// the first error the stream hit (encode, write, or flush).
func (s *StreamSink) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.work.Signal()
		s.space.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); ferr != nil && s.err == nil {
		s.err = ferr
	}
	return s.err
}

// Dropped returns the number of lines evicted under SinkDropOldest.
func (s *StreamSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err returns the first error the stream hit (nil while healthy).
func (s *StreamSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
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
