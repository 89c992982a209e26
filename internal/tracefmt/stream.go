package tracefmt

import (
	"bufio"
	"io"
	"os"
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

// LineWriter is the counted JSONL line writer behind both streams of a
// run: the trace (StreamSink) and the metrics series (obs.Telemetry). Its
// logical position (Bytes) starts at an offset and advances by every
// encoded line, even after a write has failed, so a position recorded
// mid-run, the offset a checkpoint records, is a pure function of the
// simulation. The first encode, write, flush or close error stops the
// writes and is returned by Close. A LineWriter is not safe for
// concurrent use.
type LineWriter struct {
	bw   *bufio.Writer
	file io.Closer // the file CreateLineWriter opened, closed by Close; nil otherwise
	n    uint64
	err  error
}

// CreateLineWriter opens a line file at path, counting from offset. An
// empty path discards the lines but still counts them.
func CreateLineWriter(path string, offset uint64) (*LineWriter, error) {
	if path == "" {
		return newLineWriter(io.Discard, offset), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := newLineWriter(f, offset)
	w.file = f
	return w, nil
}

// newLineWriter buffers lines into w, counting from offset.
func newLineWriter(w io.Writer, offset uint64) *LineWriter {
	return &LineWriter{bw: bufio.NewWriter(w), n: offset}
}

// WriteLine takes one encoded line with its encoding error, so an encoder
// call can feed it directly. An encode error is latched and counts
// nothing; a line is counted, and written unless an earlier error stopped
// the writes. WriteLine reports whether the counted line was lost.
func (w *LineWriter) WriteLine(line []byte, err error) (lost bool) {
	if err != nil {
		w.latch(err)
		return false
	}
	w.n += uint64(len(line))
	if w.err == nil {
		_, w.err = w.bw.Write(line)
	}
	return w.err != nil
}

// latch keeps err unless an earlier error is held; a nil err changes
// nothing.
func (w *LineWriter) latch(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Bytes returns the logical position: the offset plus every counted line.
func (w *LineWriter) Bytes() uint64 { return w.n }

// Close flushes the lines, closes the file CreateLineWriter opened, and
// returns the first error the writer hit.
func (w *LineWriter) Close() error {
	w.latch(w.bw.Flush())
	if w.file != nil {
		w.latch(w.file.Close())
	}
	return w.err
}

// StreamSink is the JSONL trace writer, a core.TraceSink that writes
// synchronously: ConsumeTrace encodes each event with MarshalEvent and
// hands the line to a LineWriter under the sink's mutex. WriteJSONL is
// the same sink over a finished slice, and Create opens one on a trace
// file; every trace file the commands write goes through it. The ether
// clock is simulated, so writing on the record path distorts nothing.
// A StreamSink is safe for concurrent producers.
type StreamSink struct {
	mu      sync.Mutex
	w       *LineWriter
	dropped int64
	dropCtr *metrics.Counter
	closed  bool
}

// NewStreamSink starts a stream on w: the header line for meta first,
// unless opts.Offset continues an earlier stream. Call Close to flush.
func NewStreamSink(w io.Writer, meta Meta, opts StreamOptions) (*StreamSink, error) {
	return newStreamSink(newLineWriter(w, opts.Offset), meta, opts)
}

// Create opens a JSONL trace file at path and returns the stream that
// writes it; Close flushes the stream and closes the file. An empty path
// discards the output but still counts Bytes, the stream position a
// checkpoint records.
func Create(path string, meta Meta, opts StreamOptions) (*StreamSink, error) {
	w, err := CreateLineWriter(path, opts.Offset)
	if err != nil {
		return nil, err
	}
	s, err := newStreamSink(w, meta, opts)
	if err != nil {
		_ = w.Close()
		return nil, err
	}
	return s, nil
}

// newStreamSink starts the stream on w, writing the header unless
// opts.Offset continues an earlier stream.
func newStreamSink(w *LineWriter, meta Meta, opts StreamOptions) (*StreamSink, error) {
	if opts.Offset == 0 {
		w.WriteLine(MarshalHeader(meta))
		if w.err != nil {
			return nil, w.err
		}
	}
	return &StreamSink{w: w, dropCtr: opts.Dropped}, nil
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
	if s.closed || !s.w.WriteLine(line, err) {
		return
	}
	s.dropped++
	if s.dropCtr != nil {
		s.dropCtr.Inc()
	}
}

// Bytes returns the logical stream position: the offset the sink started
// from plus every header and event line it encoded.
func (s *StreamSink) Bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Bytes()
}

// Close flushes the stream, closes the file Create opened, and returns
// the first error it hit (encode, write, flush, or close).
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.w.Close()
}

// Dropped returns the number of event lines lost to a failed writer.
func (s *StreamSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
