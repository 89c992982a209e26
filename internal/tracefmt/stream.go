package tracefmt

import (
	"bufio"
	"io"
	"sync"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
)

// Streaming trace pipeline: StreamSink serializes one network's events to
// JSONL as they are recorded (WriteJSONL is the same sink over a finished
// slice).

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
// is the same sink over a finished slice, and Create opens one on a trace
// file; every trace file the commands write goes through it. The ether
// clock is simulated, so writing on the record path distorts nothing.
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
	file    io.Closer // the file Create opened, closed by Close; nil otherwise
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

// Close flushes the stream, closes the file Create opened, and returns
// the first error it hit (encode, write, flush, or close).
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if ferr := s.bw.Flush(); ferr != nil && s.err == nil {
		s.err = ferr
	}
	if s.file != nil {
		if cerr := s.file.Close(); cerr != nil && s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// Dropped returns the number of event lines lost to a failed writer.
func (s *StreamSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
