package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/traffic"
)

func TestWorkloadDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		old := Workers()
		SetWorkers(workers)
		defer SetWorkers(old)
		r, err := RunWorkload([]float64{2, 8}, 2, 2, traffic.Poisson, 0.005, 7, nil)
		if err != nil {
			t.Fatalf("RunWorkload(workers=%d): %v", workers, err)
		}
		return r.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("workload sweep diverges across worker counts:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", serial, parallel)
	}
}

// TestWorkloadTraceDeterministicAcrossWorkers checks the flight recorder
// inherits the engine's determinism guarantee: the JSONL a StreamSink
// receives through the sweep's StreamMerge, and the sweep result, are
// identical at one engine and medium worker and at four. Tracing must not
// perturb the simulation either: the traced result equals the untraced one.
func TestWorkloadTraceDeterministicAcrossWorkers(t *testing.T) {
	type out struct {
		Res   *WorkloadResult
		Trace []byte
	}
	run := func(sink core.TraceSink) (*WorkloadResult, error) {
		return RunWorkload([]float64{2, 8}, 2, 2, traffic.Poisson, 0.005, 7, sink)
	}
	var traced *WorkloadResult
	runBoth(t, "workload trace", func() (out, error) {
		trace, err := streamTrace(2, func(sink core.TraceSink) (err error) {
			traced, err = run(sink)
			return err
		})
		if err == nil && bytes.Count(trace, []byte("\n")) < 2 {
			t.Fatal("workload trace recorded no events")
		}
		return out{traced, trace}, err
	})
	untraced, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, untraced) {
		t.Errorf("tracing changed the sweep result:\ntraced:   %+v\nuntraced: %+v", traced, untraced)
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
