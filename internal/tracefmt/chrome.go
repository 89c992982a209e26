package tracefmt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"megamimo/internal/core"
	"megamimo/internal/units"
)

// Chrome trace-event view of a JSONL trace (megamimo-trace chrome): one
// process ("megamimo"), one thread track per AP and per client plus a
// "network" track for protocol-wide spans, microsecond timestamps derived
// from the ether sample clock. The file loads directly in Perfetto or
// chrome://tracing; every event's full attribute block rides in args.

// Thread-track numbering: tid 0 is the network-wide track, APs are
// 1+index, clients are clientTIDBase+index.
const clientTIDBase = 1001

// eventTID routes an event to its track. Per-node telemetry lands on the
// node's own track; span kinds (measure, joint-tx, round, traffic) stay
// on the network track so their begin/end pairs nest on one timeline.
func eventTID(e core.TraceEvent) int {
	switch e.Kind {
	case core.KindSyncHeader, core.KindSlaveRatio:
		return 1 + e.Attrs.AP
	case core.KindDecode, core.KindNullDepth, core.KindDemand,
		core.KindRetransmit, core.KindFeedback:
		return clientTIDBase + e.Attrs.Client
	default:
		return 0
	}
}

// tidName labels a track for the Perfetto sidebar.
func tidName(tid int) string {
	switch {
	case tid == 0:
		return "network"
	case tid >= clientTIDBase:
		return fmt.Sprintf("client %d", tid-clientTIDBase)
	default:
		return fmt.Sprintf("AP %d", tid-1)
	}
}

// chromeEvent is one trace-event object; Args is *jsonEvent for protocol
// events and a name payload for "M" metadata records.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`
	Args any     `json:"args,omitempty"`
}

// chromeTrace is the file's top-level object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       header        `json:"otherData"`
}

// metaName is the args payload of thread_name/process_name records.
type metaName struct {
	Name string `json:"name"`
}

// WriteChrome serializes the trace in Chrome trace-event format. Output
// is deterministic: metadata tracks sorted by tid, then events in input
// (sequence) order.
func WriteChrome(w io.Writer, meta Meta, events []core.TraceEvent) error {
	ts := func(at int64) float64 {
		if meta.SampleRate > 0 {
			return units.Duration(units.Ticks(at), meta.SampleRate) * 1e6
		}
		return float64(at)
	}
	tids := map[int]bool{0: true}
	for _, e := range events {
		if !core.ValidKind(e.Kind) {
			return fmt.Errorf("tracefmt: event kind %q outside the vocabulary", e.Kind)
		}
		tids[eventTID(e)] = true
	}
	sorted := make([]int, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Ints(sorted)

	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       headerFor(meta),
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Args: metaName{Name: "megamimo"},
	})
	for _, tid := range sorted {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid, Args: metaName{Name: tidName(tid)},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Kind,
			Cat:  "protocol",
			Ph:   phString(e.Ph),
			Ts:   ts(e.At),
			Pid:  0,
			Tid:  eventTID(e),
		}
		if e.Ph != core.PhBegin && e.Ph != core.PhEnd {
			ce.S = "t" // thread-scoped instant
		}
		j := toJSON(e)
		ce.Args = &j
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
