package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
)

// eventLog is a core.TraceSink that keeps every event it receives. The
// sweep's StreamMerge forwards downstream under its own mutex, so no
// locking is needed here.
type eventLog struct{ events []core.TraceEvent }

func (l *eventLog) ConsumeTrace(e core.TraceEvent) { l.events = append(l.events, e) }

// TestWorkloadStreamedByteIdentical is the streaming pipeline's core
// determinism property: the JSONL a live StreamSink receives through the
// sweep's StreamMerge — at one worker and at four — is byte-for-byte the
// file WriteJSONL writes from the same merged events collected in memory,
// and the sweep results agree too.
func TestWorkloadStreamedByteIdentical(t *testing.T) {
	defer SetWorkers(0)
	loads := []float64{2, 6}
	const (
		nAPs, topos = 2, 2
		seconds     = 0.01
		seed        = 3
	)
	meta := tracefmt.Meta{
		SampleRate: 20e6, CarrierHz: 2.437e9,
		APs: nAPs, Clients: nAPs,
	}

	SetWorkers(1)
	var log eventLog
	wantRes, err := RunWorkload(loads, nAPs, topos, traffic.CBR, seconds, seed, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.events) == 0 {
		t.Fatal("buffered workload trace is empty; fixture records nothing")
	}
	var want bytes.Buffer
	if err := tracefmt.WriteJSONL(&want, meta, log.events); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		var got bytes.Buffer
		sink, err := tracefmt.NewStreamSink(&got, meta, tracefmt.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkload(loads, nAPs, topos, traffic.CBR, seconds, seed, sink)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("workers=%d close: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: streamed JSONL differs from buffered export (%d vs %d bytes)",
				workers, got.Len(), want.Len())
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("workers=%d: streamed sweep result differs from buffered", workers)
		}
	}
}
