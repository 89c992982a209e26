package tracefmt

import (
	"bytes"
	"encoding/json"
	"testing"

	"megamimo/internal/core"
)

// The v1 wire bytes, written out by hand. Round-trip tests pass whatever
// the keys are called; these strings pin the key names, their order, the
// omitted zero values and the float formatting a v1 reader expects.

var wireMeta = Meta{SampleRate: 20e6, CarrierHz: 2.462e9, APs: 3, Clients: 4}

const wireHeader = `{"schema":"megamimo-trace","version":1,"sample_rate":20000000,"carrier_hz":2462000000,"aps":3,"clients":4}`

// wireAttrs sets all 13 attributes non-zero.
var wireAttrs = core.TraceAttrs{
	AP:              1,
	Client:          2,
	Stream:          3,
	Pkt:             4,
	QueueDepth:      5,
	Bits:            6000,
	PhaseErrRad:     0.125,
	CFORadPerSample: -2.5e-07,
	EVMSNRdB:        31.5,
	MinSubSNRdB:     18.25,
	NullDepthDB:     40.75,
	OK:              true,
	Cause:           "no-ack",
}

const wireAttrKeys = `"ap":1,"client":2,"stream":3,"pkt":4,"queue_depth":5,"bits":6000,` +
	`"phase_err_rad":0.125,"cfo_rad_per_sample":-2.5e-7,"evm_snr_db":31.5,` +
	`"min_sub_snr_db":18.25,"null_depth_db":40.75,"ok":true,"cause":"no-ack"`

var wireEvents = []struct {
	e    core.TraceEvent
	line string
}{
	{
		core.TraceEvent{Seq: 7, At: 1234, Kind: core.KindJointTx, Ph: core.PhBegin, Span: 9, Attrs: wireAttrs, Msg: "2 streams"},
		`{"seq":7,"at":1234,"kind":"joint-tx","ph":"B","span":9,` + wireAttrKeys + `,"msg":"2 streams"}`,
	},
	{
		core.TraceEvent{Seq: 8, At: 1300, Kind: core.KindDecode, Ph: core.PhInstant, Span: 9, Attrs: wireAttrs, Msg: "fcs <ok>"},
		`{"seq":8,"at":1300,"kind":"decode","ph":"i","span":9,` + wireAttrKeys + `,"msg":"fcs \u003cok\u003e"}`,
	},
	{
		core.TraceEvent{Seq: 9, At: 1400, Kind: core.KindJointTx, Ph: core.PhEnd, Span: 9, Attrs: wireAttrs, Msg: "done"},
		`{"seq":9,"at":1400,"kind":"joint-tx","ph":"E","span":9,` + wireAttrKeys + `,"msg":"done"}`,
	},
	{
		core.TraceEvent{Seq: 0, At: 0, Kind: core.KindMetrics, Ph: core.PhInstant},
		`{"seq":0,"at":0,"kind":"metrics","ph":"i"}`,
	},
}

func TestWireBytesV1(t *testing.T) {
	h, err := MarshalHeader(wireMeta)
	if err != nil {
		t.Fatal(err)
	}
	if string(h) != wireHeader+"\n" {
		t.Errorf("header line:\n got %s want %s", h, wireHeader)
	}
	for _, w := range wireEvents {
		b, err := MarshalEvent(w.e)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != w.line+"\n" {
			t.Errorf("event %d line:\n got %s want %s", w.e.Seq, b, w.line)
		}
		back, err := UnmarshalEvent(b)
		if err != nil {
			t.Fatal(err)
		}
		if back != w.e {
			t.Errorf("event %d reads back as %+v", w.e.Seq, back)
		}
	}

	// The Chrome view carries the same header and event objects.
	events := make([]core.TraceEvent, len(wireEvents))
	for i, w := range wireEvents {
		events[i] = w.e
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, wireMeta, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string
			Args json.RawMessage
		}
		OtherData json.RawMessage
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc.OtherData) != wireHeader {
		t.Errorf("chrome otherData:\n got %s want %s", doc.OtherData, wireHeader)
	}
	i := 0
	for _, ce := range doc.TraceEvents {
		if ce.Ph == "M" {
			continue
		}
		if i < len(wireEvents) && string(ce.Args) != wireEvents[i].line {
			t.Errorf("chrome args of event %d:\n got %s want %s", i, ce.Args, wireEvents[i].line)
		}
		i++
	}
	if i != len(wireEvents) {
		t.Errorf("chrome view has %d protocol events, want %d", i, len(wireEvents))
	}
}
