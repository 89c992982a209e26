// Package tracefmt serializes the core flight recorder's structured trace
// (core.TraceEvent) to its one on-disk format, deterministic JSONL,
// converts a trace to Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing), and provides the trace-analysis primitives behind
// cmd/megamimo-trace:
// per-kind summaries, per-slave phase-synchronization statistics, span
// durations, and anomaly detection against the paper's budgets.
//
// The serialized schema is versioned (SchemaVersion); the field set is
// frozen by the tracefields lint analyzer, so a reader of version-1 files
// never meets surprise attributes.
package tracefmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"megamimo/internal/core"
	"megamimo/internal/units"
)

// SchemaVersion is the trace-format version the JSONL header and the
// Chrome view's otherData stamp, and the reader requires. Bump it together
// with core.TraceAttrs and the tracefields analyzer's schema table.
const SchemaVersion = 1

// schemaName identifies the format in headers.
const schemaName = "megamimo-trace"

// Meta describes the run a trace came from — everything the analyzers
// need to convert sample times and CFO estimates into physical units.
type Meta struct {
	// SampleRate is the ether sample rate (Hz); ether timestamps divide by
	// it to give seconds.
	SampleRate units.Hertz
	// CarrierHz is the RF carrier, used to express CFO estimates in ppm.
	CarrierHz units.Hertz
	// APs and Clients size the network (used for track naming).
	APs, Clients int
}

// MetaFor is the header of a trace recorded on a network built from cfg:
// its sample rate, carrier and size.
func MetaFor(cfg core.Config) Meta {
	return Meta{SampleRate: cfg.SampleRate, CarrierHz: cfg.CarrierHz, APs: cfg.NumAPs, Clients: cfg.NumClients}
}

// jsonEvent is the wire form of one event: flat, fixed field order
// (declaration order drives encoding/json), zero-valued attributes
// omitted. One marshaled jsonEvent per JSONL line; the same struct rides
// in the Chrome events' args, so the Chrome view carries every attribute.
type jsonEvent struct {
	Seq             int64              `json:"seq"`
	At              int64              `json:"at"`
	Kind            string             `json:"kind"`
	Ph              string             `json:"ph"`
	Span            int64              `json:"span,omitempty"`
	AP              int                `json:"ap,omitempty"`
	Client          int                `json:"client,omitempty"`
	Stream          int                `json:"stream,omitempty"`
	Pkt             int64              `json:"pkt,omitempty"`
	QueueDepth      int                `json:"queue_depth,omitempty"`
	Bits            int64              `json:"bits,omitempty"`
	PhaseErrRad     units.Radians      `json:"phase_err_rad,omitempty"`
	CFORadPerSample units.RadPerSample `json:"cfo_rad_per_sample,omitempty"`
	EVMSNRdB        units.Decibels     `json:"evm_snr_db,omitempty"`
	MinSubSNRdB     units.Decibels     `json:"min_sub_snr_db,omitempty"`
	NullDepthDB     units.Decibels     `json:"null_depth_db,omitempty"`
	OK              bool               `json:"ok,omitempty"`
	Cause           string             `json:"cause,omitempty"`
	Msg             string             `json:"msg,omitempty"`
}

// header is the first JSONL line (and the Chrome file's otherData).
type header struct {
	Schema     string      `json:"schema"`
	Version    int         `json:"version"`
	SampleRate units.Hertz `json:"sample_rate"`
	CarrierHz  units.Hertz `json:"carrier_hz"`
	APs        int         `json:"aps"`
	Clients    int         `json:"clients"`
}

// headerFor builds the wire header for a run's Meta.
func headerFor(meta Meta) header {
	return header{
		Schema:     schemaName,
		Version:    SchemaVersion,
		SampleRate: meta.SampleRate,
		CarrierHz:  meta.CarrierHz,
		APs:        meta.APs,
		Clients:    meta.Clients,
	}
}

// metaFrom recovers the Meta from a validated wire header.
func metaFrom(h header) Meta {
	return Meta{
		SampleRate: h.SampleRate,
		CarrierHz:  h.CarrierHz,
		APs:        h.APs,
		Clients:    h.Clients,
	}
}

// MarshalHeader renders the Meta as the one-line JSONL header, trailing
// newline included.
func MarshalHeader(meta Meta) ([]byte, error) {
	b, err := json.Marshal(headerFor(meta))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// MarshalEvent renders one event as its JSONL line, trailing newline
// included. The kind is validated against the closed vocabulary.
func MarshalEvent(e core.TraceEvent) ([]byte, error) {
	if !core.ValidKind(e.Kind) {
		return nil, fmt.Errorf("tracefmt: event kind %q outside the vocabulary", e.Kind)
	}
	b, err := json.Marshal(toJSON(e))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// phString maps the event phase byte to its wire form.
func phString(ph byte) string {
	switch ph {
	case core.PhBegin:
		return "B"
	case core.PhEnd:
		return "E"
	default:
		return "i"
	}
}

// phByte is the inverse of phString.
func phByte(s string) (byte, error) {
	switch s {
	case "B":
		return core.PhBegin, nil
	case "E":
		return core.PhEnd, nil
	case "i", "":
		return core.PhInstant, nil
	}
	return 0, fmt.Errorf("tracefmt: unknown event phase %q", s)
}

// toJSON flattens one event to its wire form.
func toJSON(e core.TraceEvent) jsonEvent {
	return jsonEvent{
		Seq:             e.Seq,
		At:              e.At,
		Kind:            e.Kind,
		Ph:              phString(e.Ph),
		Span:            e.Span,
		AP:              e.Attrs.AP,
		Client:          e.Attrs.Client,
		Stream:          e.Attrs.Stream,
		Pkt:             e.Attrs.Pkt,
		QueueDepth:      e.Attrs.QueueDepth,
		Bits:            e.Attrs.Bits,
		PhaseErrRad:     e.Attrs.PhaseErrRad,
		CFORadPerSample: e.Attrs.CFORadPerSample,
		EVMSNRdB:        e.Attrs.EVMSNRdB,
		MinSubSNRdB:     e.Attrs.MinSubSNRdB,
		NullDepthDB:     e.Attrs.NullDepthDB,
		OK:              e.Attrs.OK,
		Cause:           e.Attrs.Cause,
		Msg:             e.Msg,
	}
}

// fromJSON rebuilds the core event, validating its kind against the
// closed vocabulary.
func fromJSON(j jsonEvent) (core.TraceEvent, error) {
	if !core.ValidKind(j.Kind) {
		return core.TraceEvent{}, fmt.Errorf("tracefmt: kind %q outside the trace vocabulary", j.Kind)
	}
	ph, err := phByte(j.Ph)
	if err != nil {
		return core.TraceEvent{}, err
	}
	return core.TraceEvent{
		Seq:  j.Seq,
		At:   j.At,
		Kind: j.Kind,
		Ph:   ph,
		Span: j.Span,
		Attrs: core.TraceAttrs{
			AP:              j.AP,
			Client:          j.Client,
			Stream:          j.Stream,
			Pkt:             j.Pkt,
			QueueDepth:      j.QueueDepth,
			Bits:            j.Bits,
			PhaseErrRad:     j.PhaseErrRad,
			CFORadPerSample: j.CFORadPerSample,
			EVMSNRdB:        j.EVMSNRdB,
			MinSubSNRdB:     j.MinSubSNRdB,
			NullDepthDB:     j.NullDepthDB,
			OK:              j.OK,
			Cause:           j.Cause,
		},
		Msg: j.Msg,
	}, nil
}

// WriteJSONL writes the versioned header line followed by one event per
// line, through a StreamSink over the events. The output is a pure
// function of (meta, events): field order is fixed, floats use Go's
// shortest representation, nothing depends on map iteration — so
// identical traces serialize byte-identically.
func WriteJSONL(w io.Writer, meta Meta, events []core.TraceEvent) error {
	s, err := NewStreamSink(w, meta, StreamOptions{})
	if err != nil {
		return err
	}
	for i := range events {
		s.ConsumeTrace(events[i])
	}
	return s.Close()
}

// ReadJSONL parses a JSONL trace, checking the header's schema/version
// and every event's kind.
func ReadJSONL(r io.Reader) (Meta, []core.TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Meta{}, nil, err
		}
		return Meta{}, nil, fmt.Errorf("tracefmt: empty trace file")
	}
	meta, err := UnmarshalHeader(sc.Bytes())
	if err != nil {
		return Meta{}, nil, err
	}
	var events []core.TraceEvent
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		e, err := UnmarshalEvent(sc.Bytes())
		if err != nil {
			return Meta{}, nil, fmt.Errorf("tracefmt: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, err
	}
	return meta, events, nil
}

// UnmarshalHeader parses one JSONL header line, validating the schema
// name and version — the inverse of MarshalHeader. Line-level parsing is
// what lets a follower consume a trace that is still being written.
func UnmarshalHeader(line []byte) (Meta, error) {
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return Meta{}, fmt.Errorf("tracefmt: bad header line: %w", err)
	}
	if h.Schema != schemaName {
		return Meta{}, fmt.Errorf("tracefmt: header schema %q, want %q", h.Schema, schemaName)
	}
	if h.Version != SchemaVersion {
		return Meta{}, fmt.Errorf("tracefmt: header schema version %d, reader supports %d", h.Version, SchemaVersion)
	}
	return metaFrom(h), nil
}

// UnmarshalEvent parses one JSONL event line, validating its kind — the
// inverse of MarshalEvent.
func UnmarshalEvent(line []byte) (core.TraceEvent, error) {
	var j jsonEvent
	if err := json.Unmarshal(line, &j); err != nil {
		return core.TraceEvent{}, err
	}
	return fromJSON(j)
}

// Create opens a JSONL trace file at path and returns the stream that
// writes it; Close flushes the stream and closes the file. An empty path
// discards the output but still counts Bytes, the stream position a
// checkpoint records.
func Create(path string, meta Meta, opts StreamOptions) (*StreamSink, error) {
	if path == "" {
		return NewStreamSink(io.Discard, meta, opts)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamSink(f, meta, opts)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s.file = f
	return s, nil
}

// ReadFile loads a JSONL trace file.
func ReadFile(path string) (Meta, []core.TraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
