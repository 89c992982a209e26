package tracefmt

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/units"
)

func sampleMeta() Meta {
	return Meta{SampleRate: 20e6, CarrierHz: 2.462e9, APs: 2, Clients: 2}
}

// sampleEvents builds a small synthetic protocol trace with spans,
// telemetry and every attribute class populated somewhere.
func sampleEvents() []core.TraceEvent {
	return []core.TraceEvent{
		{Seq: 0, At: 0, Kind: core.KindMeasure, Ph: core.PhBegin, Span: 1,
			Attrs: core.TraceAttrs{AP: 0}, Msg: "2 measurement packets"},
		{Seq: 1, At: 100, Kind: core.KindSlaveRatio, Ph: core.PhInstant, Span: 1,
			Attrs: core.TraceAttrs{AP: 1, PhaseErrRad: 0.021, CFORadPerSample: 3.1e-5}},
		{Seq: 2, At: 200, Kind: core.KindMeasure, Ph: core.PhEnd, Span: 1,
			Attrs: core.TraceAttrs{AP: 0, OK: true}},
		{Seq: 3, At: 300, Kind: core.KindRound, Ph: core.PhBegin, Span: 2,
			Attrs: core.TraceAttrs{AP: 0, Pkt: 7, QueueDepth: 3}},
		{Seq: 4, At: 310, Kind: core.KindJointTx, Ph: core.PhBegin, Span: 3,
			Attrs: core.TraceAttrs{Bits: 3200}, Msg: "2 streams at MCS 0"},
		{Seq: 5, At: 320, Kind: core.KindSyncHeader, Ph: core.PhInstant, Span: 3,
			Attrs: core.TraceAttrs{AP: 0}},
		{Seq: 6, At: 330, Kind: core.KindSlaveRatio, Ph: core.PhInstant, Span: 3,
			Attrs: core.TraceAttrs{AP: 1, PhaseErrRad: -0.013, CFORadPerSample: 3.2e-5}},
		{Seq: 7, At: 400, Kind: core.KindDecode, Ph: core.PhInstant, Span: 3,
			Attrs: core.TraceAttrs{Client: 0, Stream: 0, EVMSNRdB: 32.5, MinSubSNRdB: 21.0, OK: true}},
		{Seq: 8, At: 401, Kind: core.KindDecode, Ph: core.PhInstant, Span: 3,
			Attrs: core.TraceAttrs{Client: 1, Stream: 1, EVMSNRdB: 30.1, MinSubSNRdB: 19.5, OK: true}},
		{Seq: 9, At: 402, Kind: core.KindNullDepth, Ph: core.PhInstant, Span: 3,
			Attrs: core.TraceAttrs{Client: 1, Stream: 1, NullDepthDB: 38.4}},
		{Seq: 10, At: 450, Kind: core.KindJointTx, Ph: core.PhEnd, Span: 3,
			Attrs: core.TraceAttrs{Bits: 3200, OK: true}, Msg: "2/2 streams delivered"},
		{Seq: 11, At: 460, Kind: core.KindRetransmit, Ph: core.PhInstant, Span: 2,
			Attrs: core.TraceAttrs{Stream: 1, Pkt: 9, Cause: "no-ack"}},
		{Seq: 12, At: 470, Kind: core.KindRound, Ph: core.PhEnd, Span: 2,
			Attrs: core.TraceAttrs{QueueDepth: 1, Bits: 1600, OK: false}},
		{Seq: 13, At: 480, Kind: core.KindDemand, Ph: core.PhInstant,
			Attrs: core.TraceAttrs{Client: 0, Pkt: 11, QueueDepth: 2, Bits: 12000, OK: true}},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEvents, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Fatalf("events round-trip mismatch:\ngot  %+v\nwant %+v", gotEvents, events)
	}
	// Re-serializing the parsed trace must be byte-identical: the writer
	// is a pure function of (meta, events).
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, gotMeta, gotEvents); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized JSONL differs from the original bytes")
	}
	// Traces written before the header lost its sync key still load.
	old := withSyncKey(t, buf.Bytes())
	line, _, _ := bytes.Cut(old, []byte("\n"))
	if m, err := UnmarshalHeader(line); err != nil || m != meta {
		t.Fatalf("UnmarshalHeader(%s) = %+v, %v; want %+v", line, m, err, meta)
	}
	oldMeta, oldEvents, err := ReadJSONL(bytes.NewReader(old))
	if err != nil || oldMeta != meta || !reflect.DeepEqual(oldEvents, events) {
		t.Fatalf("ReadJSONL of a header with a sync key: meta %+v, err %v", oldMeta, err)
	}
}

// withSyncKey inserts the "sync" header key that older writers emitted
// (`"sync":"airsync"`, after "clients") into a serialized trace.
func withSyncKey(t *testing.T, b []byte) []byte {
	t.Helper()
	out := bytes.Replace(b, []byte(`"clients":2`), []byte(`"clients":2,"sync":"airsync"`), 1)
	if bytes.Equal(out, b) {
		t.Fatal("no header clients key to follow with a sync key")
	}
	return out
}

// FuzzReadJSONL feeds arbitrary bytes to the JSONL reader. It must never
// panic, and whatever it accepts must survive a write/re-read cycle: the
// written trace re-reads to an equal (meta, events), and writing that
// again is byte-identical to the first write.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleMeta(), sampleEvents()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	header := valid[:bytes.IndexByte(valid, '\n')+1]
	f.Add(valid)
	f.Add(header)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(header)+7])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, header...), "\n  \n{\"seq\":1,\"at\":2,\"kind\":\"round\"}\n"...))
	f.Add(append(append([]byte{}, header...), "not json\n"...))
	f.Add(append(append([]byte{}, header...), `{"seq":"x","kind":"round"}`+"\n"...))
	f.Add(append(append([]byte{}, header...), `{"seq":0,"kind":"round","ph":"Q"}`+"\n"...))
	f.Add([]byte("\x00\xff{garbage\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, meta, events); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		meta2, events2, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if meta2 != meta || !reflect.DeepEqual(events2, events) {
			t.Fatalf("write/re-read changed the trace:\nmeta %+v -> %+v\nevents %+v -> %+v",
				meta, meta2, events, events2)
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, meta2, events2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

func TestJSONLRejectsUnknownKind(t *testing.T) {
	bad := []core.TraceEvent{{Seq: 0, At: 0, Kind: "mystery", Ph: core.PhInstant}}
	if err := WriteJSONL(&bytes.Buffer{}, sampleMeta(), bad); err == nil {
		t.Fatal("writer accepted a kind outside the vocabulary")
	}
	in := `{"schema":"megamimo-trace","version":1,"sample_rate":1,"carrier_hz":1,"aps":1,"clients":1}
{"seq":0,"at":0,"kind":"mystery","ph":"i"}
`
	if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("reader accepted a kind outside the vocabulary")
	}
}

func TestJSONLRejectsWrongSchemaVersion(t *testing.T) {
	in := `{"schema":"megamimo-trace","version":99}` + "\n"
	if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	in = `{"schema":"other-format","version":1}` + "\n"
	if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestChromeRoundTrip checks the Chrome view is a function of the JSONL
// file: converting a trace read back from its JSONL bytes (with or without
// the older writers' header sync key) writes exactly the Chrome bytes of
// the original events.
func TestChromeRoundTrip(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	var want, jsonl bytes.Buffer
	if err := WriteChrome(&want, meta, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonl, meta, events); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{jsonl.Bytes(), withSyncKey(t, jsonl.Bytes())} {
		gotMeta, gotEvents, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteChrome(&got, gotMeta, gotEvents); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("chrome view of the JSONL trace differs:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
		}
	}
}

// TestChromeStructure checks the file is valid Chrome trace-event JSON
// with per-AP and per-client thread tracks named for the Perfetto UI.
func TestChromeStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleMeta(), sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("chrome output is not one JSON object: %v", err)
	}
	evs, ok := raw["traceEvents"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatal("traceEvents missing or empty")
	}
	names := map[string]bool{}
	var begins, ends int
	for _, v := range evs {
		e := v.(map[string]any)
		switch e["ph"] {
		case "M":
			if args, ok := e["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	for _, want := range []string{"megamimo", "network", "AP 1", "client 0", "client 1"} {
		if !names[want] {
			t.Errorf("missing metadata track name %q (have %v)", want, names)
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("span events unbalanced: %d begins, %d ends", begins, ends)
	}
}

// writeTraceFile writes events to path through Create and returns the
// closed sink.
func writeTraceFile(t *testing.T, path string, meta Meta, events []core.TraceEvent) *StreamSink {
	t.Helper()
	s, err := Create(path, meta, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.ConsumeTrace(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileSinkReadFileSniffsFormat checks a trace file written through
// Create reads back equal through ReadFile.
func TestFileSinkReadFileSniffsFormat(t *testing.T) {
	meta, events := sampleMeta(), sampleEvents()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	writeTraceFile(t, path, meta, events)
	gotMeta, gotEvents, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta || !reflect.DeepEqual(gotEvents, events) {
		t.Fatalf("round-trip through file mismatched: %+v %+v", gotMeta, gotEvents)
	}
}

// TestFileSinkErrors checks Create fails on a path it cannot open, and
// Close reports a write the file system refused.
func TestFileSinkErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "trace")
	if _, err := Create(missing, sampleMeta(), StreamOptions{}); err == nil {
		t.Error("Create in a missing directory returned no error")
	}
	// /dev/full accepts the open and fails every write with ENOSPC.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes on")
	}
	s, err := Create("/dev/full", sampleMeta(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		s.ConsumeTrace(e)
	}
	if err := s.Close(); err == nil {
		t.Error("Close returned nil after a failed write")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleMeta(), sampleEvents())
	if s.Events != 14 {
		t.Errorf("Events = %d, want 14", s.Events)
	}
	if s.Spans != 3 {
		t.Errorf("Spans = %d, want 3", s.Spans)
	}
	if s.OpenSpans != 0 {
		t.Errorf("OpenSpans = %d, want 0", s.OpenSpans)
	}
	if s.AtMin != 0 || s.AtMax != 480 {
		t.Errorf("At range [%d, %d], want [0, 480]", s.AtMin, s.AtMax)
	}
	if math.Abs(s.DurationMs-480.0/20e6*1e3) > 1e-12 {
		t.Errorf("DurationMs = %g", s.DurationMs)
	}
	counts := map[string]int{}
	for _, kc := range s.ByKind {
		counts[kc.Kind] = kc.Count
	}
	if counts[core.KindDecode] != 2 || counts[core.KindSlaveRatio] != 2 {
		t.Errorf("per-kind counts wrong: %v", counts)
	}
}

func TestPhaseStats(t *testing.T) {
	ps := PhaseStats(sampleMeta(), sampleEvents())
	if len(ps) != 1 {
		t.Fatalf("got %d phase stats, want 1 (only AP 1 emits slave-ratio)", len(ps))
	}
	st := ps[0]
	if st.AP != 1 || st.N != 2 {
		t.Fatalf("stat = %+v", st)
	}
	if units.Abs(st.MaxAbsRad-0.021) > 1e-12 {
		t.Errorf("MaxAbsRad = %g, want 0.021", st.MaxAbsRad)
	}
	wantCFO := (3.1e-5 + 3.2e-5) / 2
	if math.Abs(units.Ratio(st.CFORadPerSample, 1)-wantCFO) > 1e-12 {
		t.Errorf("CFO = %g, want %g", st.CFORadPerSample, wantCFO)
	}
	// ppm = cfo·rate/(2π·carrier)·1e6
	wantPPM := wantCFO * 20e6 / (2 * math.Pi) / 2.462e9 * 1e6
	if math.Abs(units.Ratio(st.RelPPM, 1)-wantPPM) > 1e-9 {
		t.Errorf("RelPPM = %g, want %g", st.RelPPM, wantPPM)
	}
}

func TestSpanStats(t *testing.T) {
	ss := SpanStats(sampleMeta(), sampleEvents())
	byKind := map[string]SpanStat{}
	for _, s := range ss {
		byKind[s.Kind] = s
	}
	jt, ok := byKind[core.KindJointTx]
	if !ok || jt.N != 1 {
		t.Fatalf("joint-tx span stats missing: %+v", ss)
	}
	wantMs := float64(450-310) / 20e6 * 1e3
	if math.Abs(jt.MaxMs-wantMs) > 1e-12 {
		t.Errorf("joint-tx duration %g ms, want %g", jt.MaxMs, wantMs)
	}
	if _, ok := byKind[core.KindRound]; !ok {
		t.Error("round span stats missing")
	}
}

func TestFindAnomaliesCleanTrace(t *testing.T) {
	got := FindAnomalies(sampleMeta(), sampleEvents(), DefaultBudget())
	// The synthetic trace has one "no-ack" retransmit but no max-attempts
	// failure, phase errors well under π/18, CFO ≈ 0.04 ppm: clean.
	if len(got) != 0 {
		t.Fatalf("clean trace reported anomalies: %v", got)
	}
}

func TestFindAnomaliesFlagsViolations(t *testing.T) {
	meta := sampleMeta()
	events := sampleEvents()
	// Slave AP 1 drifts: blow the phase budget and the ppm mandate.
	// 45 ppm relative at 2.462 GHz carrier, 20 MHz sampling.
	badCFO := units.RadPerSample(45.0 / 1e6 * 2.462e9 * 2 * math.Pi / 20e6)
	for i := range events {
		if events[i].Kind == core.KindSlaveRatio {
			events[i].Attrs.PhaseErrRad = 0.5 // ≫ π/18
			events[i].Attrs.CFORadPerSample = badCFO
		}
	}
	events = append(events,
		core.TraceEvent{Seq: 14, At: 500, Kind: core.KindRetransmit, Ph: core.PhInstant,
			Attrs: core.TraceAttrs{Stream: 0, Pkt: 3, Cause: "max-attempts"}},
		core.TraceEvent{Seq: 15, At: 510, Kind: core.KindDecode, Ph: core.PhInstant,
			Attrs: core.TraceAttrs{Client: 0, Stream: 0, Cause: "decode"}, Msg: "FCS failed"},
	)
	got := FindAnomalies(meta, events, DefaultBudget())
	checks := map[string]int{}
	for _, a := range got {
		checks[a.Check]++
		if a.Msg == "" {
			t.Errorf("anomaly with empty message: %+v", a)
		}
	}
	for _, want := range []string{"phase-budget", "cfo-mandate", "packet-failure", "decode-failure"} {
		if checks[want] == 0 {
			t.Errorf("missing %s anomaly (got %v)", want, checks)
		}
	}
	// The phase-budget anomaly must name the offending slave AP.
	for _, a := range got {
		if a.Check == "phase-budget" && a.AP != 1 {
			t.Errorf("phase-budget anomaly blames AP %d, want 1", a.AP)
		}
		if a.Check == "cfo-mandate" && math.Abs(a.Value-45) > 0.5 {
			t.Errorf("cfo-mandate value %.2f ppm, want ≈45", a.Value)
		}
	}
}

func TestFindAnomaliesEVMAndNullDegradation(t *testing.T) {
	meta := sampleMeta()
	var events []core.TraceEvent
	seq := int64(0)
	add := func(kind string, a core.TraceAttrs) {
		events = append(events, core.TraceEvent{Seq: seq, At: seq * 10, Kind: kind, Ph: core.PhInstant, Attrs: a})
		seq++
	}
	for i := 0; i < 9; i++ {
		add(core.KindDecode, core.TraceAttrs{Stream: 0, EVMSNRdB: 30, OK: true})
		add(core.KindNullDepth, core.TraceAttrs{Stream: 1, NullDepthDB: 40})
	}
	add(core.KindDecode, core.TraceAttrs{Stream: 0, EVMSNRdB: 18, OK: true}) // 12 dB below median
	add(core.KindNullDepth, core.TraceAttrs{Stream: 1, NullDepthDB: 25})     // 15 dB below median
	got := FindAnomalies(meta, events, DefaultBudget())
	checks := map[string]int{}
	for _, a := range got {
		checks[a.Check]++
	}
	if checks["evm-degradation"] != 1 {
		t.Errorf("evm-degradation count %d, want 1 (%v)", checks["evm-degradation"], got)
	}
	if checks["null-degradation"] != 1 {
		t.Errorf("null-degradation count %d, want 1 (%v)", checks["null-degradation"], got)
	}
}

// TestDefaultBudgetMandateConstants pins the anomaly gate's default
// thresholds to the paper-mandated identities: the π/18 (10°) residual
// phase budget from §7's nulling analysis, and a relative CFO bound of
// twice the 802.11 ±20 ppm oscillator tolerance (worst case: both
// oscillators at opposite extremes). If either drifts, the drift must be
// a deliberate, documented decision — update this test alongside it.
func TestDefaultBudgetMandateConstants(t *testing.T) {
	b := DefaultBudget()
	if got, want := b.PhaseBudgetRad, units.Radians(math.Pi/18); got != want {
		t.Errorf("DefaultBudget().PhaseBudgetRad = %v, want π/18 = %v", got, want)
	}
	if got, want := b.PhaseBudgetRad, units.DegreesToRadians(10); units.Abs(got-want) > 1e-15 {
		t.Errorf("DefaultBudget().PhaseBudgetRad = %v, want DegreesToRadians(10) = %v", got, want)
	}
	if got, want := b.MaxRelPPM, 2*units.Dot11MaxPPM; got != want {
		t.Errorf("DefaultBudget().MaxRelPPM = %v, want 2·Dot11MaxPPM = %v", got, want)
	}
}
