package experiment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"megamimo/internal/air"
	"megamimo/internal/core"
	"megamimo/internal/tracefmt"
	"megamimo/internal/units"
)

// The parallel engine and the sharded air medium must be invisible in the
// output: every runner produces deep-equal results, identical rendered
// tables and identical trace and series bytes on one worker and one P and
// on four. Configs here are the smallest that exercise every cell
// boundary (multiple bins, AP counts, topologies), so the table stays fast
// enough for the -race CI run.

// runBoth runs fn with one engine and medium worker under GOMAXPROCS=1,
// then with four of each, and compares the results.
func runBoth(t *testing.T, fn func(t *testing.T) (any, error)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer SetWorkers(0)
	defer air.SetWorkers(0)
	arm := func(workers int) any {
		runtime.GOMAXPROCS(workers)
		SetWorkers(workers)
		air.SetWorkers(workers)
		v, err := fn(t)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return v
	}
	serial, parallel := arm(1), arm(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel result differs from serial\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if s, p := render(serial), render(parallel); s != p {
		t.Errorf("rendered output differs\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

// render calls String() when the result has one.
func render(v any) string {
	if s, ok := v.(interface{ String() string }); ok {
		return s.String()
	}
	return ""
}

// traceMeta is the trace header of the high-SNR default network with nAPs
// APs and as many clients.
func traceMeta(nAPs int) tracefmt.Meta {
	cfg := core.DefaultConfig(nAPs, nAPs, HighSNR.Lo, HighSNR.Hi)
	return tracefmt.Meta{SampleRate: cfg.SampleRate, CarrierHz: cfg.CarrierHz, APs: nAPs, Clients: nAPs}
}

// streamTrace runs fn with a JSONL StreamSink attached and returns the
// bytes it wrote.
func streamTrace(nAPs int, fn func(core.TraceSink) error) ([]byte, error) {
	var buf bytes.Buffer
	sink, err := tracefmt.NewStreamSink(&buf, traceMeta(nAPs), tracefmt.StreamOptions{})
	if err != nil {
		return nil, err
	}
	err = fn(sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return buf.Bytes(), err
}

// TestWorkerInvariance runs every experiment runner but the workload
// sweep at one and at four workers. Rows marked full need the whole measurement pipeline and skip
// under -short.
func TestWorkerInvariance(t *testing.T) {
	soakDir := t.TempDir()
	for _, row := range []struct {
		name string
		full bool
		run  func(t *testing.T) (any, error)
	}{
		{"fig5", false, func(*testing.T) (any, error) { return RunFig5(1), nil }},
		{"fig6", false, func(*testing.T) (any, error) { return RunFig6(8, 1), nil }},
		// Enough rounds per placement that the medium holds several shards
		// of emissions, so the oscillators' wander walk (only Fig. 7 turns
		// it on) is read under the sharded observe.
		{"fig7", false, func(*testing.T) (any, error) { return RunFig7(2, 40, 1) }},
		{"fig8", true, func(*testing.T) (any, error) { return RunFig8(3, 2, 1) }},
		{"fig9", true, func(*testing.T) (any, error) { return RunFig9([]int{2, 3}, 2, 1, 1) }},
		{"fig11", true, func(*testing.T) (any, error) { return RunFig11([]int{2}, 1, 1) }},
		{"fig12", true, func(*testing.T) (any, error) { return RunFig12(2, 1, 1) }},
		{"ablations", true, func(*testing.T) (any, error) { return RunAblations(2, 1) }},
		{"robustness", true, func(*testing.T) (any, error) { return RunRobustness([]units.PPM{2, 20}, 2, 1) }},
		{"amortization", true, func(*testing.T) (any, error) { return RunAmortization([]int{1, 4}, 2, 1) }},
		// The workload sweep's row, with its trace, is
		// TestWorkloadDeterministicAcrossWorkers in workload_test.go.
		// The fault storm, the degraded rounds and the merged trace. Nine
		// APs transmitting jointly fill three shards of the medium, the
		// fewest at which the order of the shard reduction shows.
		{"chaos", true, func(*testing.T) (any, error) {
			var res *ChaosResult
			trace, err := streamTrace(9, func(sink core.TraceSink) (err error) {
				res, err = RunChaos([]float64{0, 600}, 9, 1, 0.01, 77, sink)
				return err
			})
			return []any{res, trace}, err
		}},
		{"syncsweep", true, func(*testing.T) (any, error) { return quickSweep() }},
		// One network on the sharded medium: trace and series bytes.
		{"soak", true, func(t *testing.T) (any, error) {
			res := runSoakTo(t, soakTestConfig(t), soakDir)
			trace, err := os.ReadFile(filepath.Join(soakDir, "trace.jsonl"))
			series, serr := os.ReadFile(filepath.Join(soakDir, "series.jsonl"))
			return []any{res, trace, series}, errors.Join(err, serr)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.full && testing.Short() {
				t.Skip("full measurement pipeline")
			}
			runBoth(t, row.run)
		})
	}
}
