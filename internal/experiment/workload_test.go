package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
)

// runWorkload is the small Poisson sweep the workload invariance tests
// share.
func runWorkload(sink core.TraceSink) (*WorkloadResult, error) {
	return RunWorkload([]float64{2, 8}, 2, 2, traffic.Poisson, 0.005, 7, sink)
}

// eventLog is a core.TraceSink that keeps every event it receives.
type eventLog struct{ events []core.TraceEvent }

func (l *eventLog) ConsumeTrace(e core.TraceEvent) { l.events = append(l.events, e) }

// TestWorkloadDeterministicAcrossWorkers is the workload sweep's row of
// the worker-invariance table: the result and the JSONL trace are the
// same at one worker and at four.
func TestWorkloadDeterministicAcrossWorkers(t *testing.T) {
	runBoth(t, func(t *testing.T) (any, error) {
		var res *WorkloadResult
		trace, err := streamTrace(2, func(sink core.TraceSink) (err error) {
			res, err = runWorkload(sink)
			return err
		})
		if err == nil && bytes.Count(trace, []byte("\n")) < 2 {
			t.Fatal("workload trace recorded no events")
		}
		return []any{res, trace}, err
	})
}

// TestWorkloadTraceDeterministicAcrossWorkers checks tracing does not
// perturb the simulation: at four workers, where the sweep's StreamMerge
// interleaves the cells, the traced result equals the untraced one.
func TestWorkloadTraceDeterministicAcrossWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	var log eventLog
	traced, err := runWorkload(&log)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.events) == 0 {
		t.Fatal("workload trace recorded no events")
	}
	untraced, err := runWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, untraced) {
		t.Errorf("tracing changed the sweep result:\ntraced:   %+v\nuntraced: %+v", traced, untraced)
	}
}

// TestWorkloadStreamedByteIdentical checks the JSONL a live StreamSink
// receives at four workers is byte for byte the file WriteJSONL writes
// from the same merged events collected in memory.
func TestWorkloadStreamedByteIdentical(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	var log eventLog
	streamed, err := streamTrace(2, func(sink core.TraceSink) error {
		_, err := runWorkload(core.TeeSinks(sink, &log))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buffered bytes.Buffer
	if err := tracefmt.WriteJSONL(&buffered, traceMeta(2), log.events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, buffered.Bytes()) {
		t.Errorf("streamed JSONL differs from the buffered export (%d vs %d bytes)", len(streamed), buffered.Len())
	}
}

func TestWorkloadSaturationGain(t *testing.T) {
	// At a demand far beyond one AP's unicast capacity, joint
	// transmission must deliver more than the equal-share baseline —
	// the paper's headline claim, restated in workload terms.
	r, err := RunWorkload([]float64{16}, 2, 2, traffic.Poisson, 0.01, 11, nil)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	p := r.Points[0]
	if p.MegaMIMOMbps <= 0 {
		t.Fatal("MegaMIMO delivered nothing at saturation")
	}
	if p.MegaMIMOMbps <= p.BaselineMbps {
		t.Fatalf("no saturation gain: MegaMIMO %.2f Mb/s vs 802.11 %.2f Mb/s",
			p.MegaMIMOMbps, p.BaselineMbps)
	}
}
