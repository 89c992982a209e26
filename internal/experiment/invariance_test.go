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
	"megamimo/internal/fault"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
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

// traceMeta is the trace header of a closed-loop sweep cell with nAPs APs
// and as many clients.
func traceMeta(nAPs int) tracefmt.Meta {
	return tracefmt.MetaFor(cellConfig(haar, nAPs, nAPs, HighSNR.Lo, HighSNR.Hi, 0))
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

// stormCell runs the MegaMIMO half of a chaos cell built by hand: nine APs
// and clients on the high-SNR Haar topology serving CBR demand under a
// 600 faults/s storm, the flight recorder feeding sink when it is non-nil.
func stormCell(sink core.TraceSink) (*traffic.Report, error) {
	const nAPs, seconds, seed = 9, 0.01, 77
	n, err := network(haar, nAPs, nAPs, HighSNR.Lo, HighSNR.Hi, seed, nil)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		n.Trace().SetSink(sink)
		n.Trace().Enable(1 << 10)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		return nil, err
	}
	cfg := traffic.Config{
		System:   traffic.SystemMegaMIMO,
		Profiles: make([]traffic.Profile, n.NumStreams()),
		Seed:     seed,
		Faults:   fault.Storm(n, seed, seconds, 600),
	}
	for i := range cfg.Profiles {
		cfg.Profiles[i] = traffic.NewCBR(chaosLoadMbpsPerClient*1e6, PayloadBytes)
	}
	eng, err := traffic.New(n, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run(seconds)
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
		// The workload sweep's row is TestWorkloadDeterministicAcrossWorkers
		// in workload_test.go.
		// The chaos sweep, and one of its cells traced by hand
		// (stormCell): the fault storm, the degraded rounds and one
		// network's trace. Nine APs transmitting jointly fill three shards
		// of the medium, the fewest at which the order of the shard
		// reduction shows. Tracing must not perturb the cell.
		{"chaos", true, func(*testing.T) (any, error) { return RunChaos([]float64{0, 600}, 9, 1, 0.01, 77) }},
		{"traced-cell", true, func(t *testing.T) (any, error) {
			var rep *traffic.Report
			trace, err := streamTrace(9, func(sink core.TraceSink) (err error) {
				rep, err = stormCell(sink)
				return err
			})
			if err != nil {
				return nil, err
			}
			if bytes.Count(trace, []byte("\n")) < 2 {
				t.Fatal("cell trace recorded no events")
			}
			untraced, err := stormCell(nil)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(rep, untraced) {
				t.Errorf("tracing changed the cell's report:\ntraced:   %+v\nuntraced: %+v", rep, untraced)
			}
			return []any{rep, trace}, nil
		}},
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
