package tracefmt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
)

// joinedLines is the oracle for the JSONL writer: MarshalHeader's line
// followed by every MarshalEvent line, in order.
func joinedLines(t *testing.T, meta Meta, events []core.TraceEvent) []byte {
	t.Helper()
	out, err := MarshalHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		line, err := MarshalEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line...)
	}
	return out
}

// TestStreamSinkMatchesWriteJSONL is the byte-identity core: streaming the
// sample events through a StreamSink, exporting them with WriteJSONL, and
// writing them to a file through Create all produce exactly the header and
// event lines joined in order.
func TestStreamSinkMatchesWriteJSONL(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	want := joinedLines(t, meta, events)
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
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed JSONL differs from the marshalled lines:\nstream: %q\nwant:   %q",
			got.String(), want)
	}
	if s.Dropped() != 0 {
		t.Fatalf("healthy sink dropped %d lines", s.Dropped())
	}
	var batch bytes.Buffer
	if err := WriteJSONL(&batch, meta, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), want) {
		t.Fatalf("WriteJSONL differs from the marshalled lines:\nbatch: %q\nwant:  %q",
			batch.String(), want)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	fs := writeTraceFile(t, path, meta, events)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("trace file differs from the marshalled lines:\nfile: %q\nwant: %q", file, want)
	}
	if fs.Bytes() != uint64(len(want)) || fs.Dropped() != 0 {
		t.Fatalf("file sink Bytes() = %d, Dropped() = %d; want %d, 0", fs.Bytes(), fs.Dropped(), len(want))
	}
}

// TestStreamSinkHeaderFirst checks the stream is a valid trace file from
// its first byte: header precedes any event and round-trips the Meta.
func TestStreamSinkHeaderFirst(t *testing.T) {
	var buf bytes.Buffer
	meta := Meta{SampleRate: 10e6, CarrierHz: 2.437e9, APs: 3, Clients: 3}
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

// TestStreamSinkBytesCountsEveryLine checks the logical stream position:
// the header, then each event line as it is consumed, ending at the
// length of the flushed stream.
func TestStreamSinkBytesCountsEveryLine(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	var buf bytes.Buffer
	s, err := NewStreamSink(&buf, meta, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(joinedLines(t, meta, nil)))
	if got := s.Bytes(); got != want {
		t.Fatalf("after the header Bytes() = %d, want %d", got, want)
	}
	for i, e := range events {
		s.ConsumeTrace(e)
		want = uint64(len(joinedLines(t, meta, events[:i+1])))
		if got := s.Bytes(); got != want {
			t.Fatalf("after event %d Bytes() = %d, want %d", i, got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if uint64(buf.Len()) != s.Bytes() {
		t.Fatalf("flushed %d bytes, Bytes() = %d", buf.Len(), s.Bytes())
	}
}

// TestStreamSinkOffsetContinues checks that a non-zero Offset continues an
// earlier stream: no header, Bytes counting on from the offset, and the
// tail spliced at that offset reproducing the uninterrupted stream.
func TestStreamSinkOffsetContinues(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	full := joinedLines(t, meta, events)
	const cut = 5
	head := joinedLines(t, meta, events[:cut])

	var tail bytes.Buffer
	s, err := NewStreamSink(&tail, meta, StreamOptions{Offset: uint64(len(head))})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Bytes(); got != uint64(len(head)) {
		t.Fatalf("Bytes() before any event = %d, want the offset %d", got, len(head))
	}
	for _, e := range events[cut:] {
		s.ConsumeTrace(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), full[len(head):]) {
		t.Fatalf("continued stream is not the uninterrupted tail:\ngot:  %q\nwant: %q",
			tail.String(), full[len(head):])
	}
	if got := s.Bytes(); got != uint64(len(full)) {
		t.Fatalf("final Bytes() = %d, want %d", got, len(full))
	}
}

// failAfter accepts `left` bytes, then fails every write.
type failAfter struct{ left int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errors.New("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}

// TestStreamSinkCountsLinesLostToFailedWriter checks that once the writer
// fails, every further line still advances Bytes and is counted in
// Dropped and in the dropped counter, and Close reports the failure.
func TestStreamSinkCountsLinesLostToFailedWriter(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("trace_sink_dropped_total")
	s, err := NewStreamSink(&failAfter{left: 1000}, Meta{}, StreamOptions{Dropped: ctr})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(i int) core.TraceEvent {
		return core.TraceEvent{Seq: int64(i), At: int64(i), Kind: core.KindTraffic, Msg: strings.Repeat("x", 200)}
	}
	i := 0
	for ; s.Dropped() == 0; i++ {
		if i == 1000 {
			t.Fatal("no line dropped by a writer that fails after 1000 bytes")
		}
		s.ConsumeTrace(ev(i))
	}
	if ctr.Value() != 1 {
		t.Fatalf("dropped counter %d after the first lost line, want 1", ctr.Value())
	}
	for k := 0; k < 5; k++ {
		line, err := MarshalEvent(ev(i))
		if err != nil {
			t.Fatal(err)
		}
		before := s.Bytes()
		s.ConsumeTrace(ev(i))
		i++
		if got := s.Bytes() - before; got != uint64(len(line)) {
			t.Fatalf("lost line advanced Bytes() by %d, want %d", got, len(line))
		}
		if s.Dropped() != int64(k+2) || ctr.Value() != s.Dropped() {
			t.Fatalf("after %d more lost lines: Dropped() = %d, counter %d, want %d",
				k+1, s.Dropped(), ctr.Value(), k+2)
		}
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil after a write error")
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestStreamSinkWriteError checks a failing writer surfaces via Close,
// even when the failure only shows at the final flush.
func TestStreamSinkWriteError(t *testing.T) {
	s, err := NewStreamSink(errWriter{}, Meta{}, StreamOptions{})
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
