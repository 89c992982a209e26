package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"megamimo/internal/air"
	"megamimo/internal/core"
	"megamimo/internal/tracefmt"
	"megamimo/internal/units"
)

// The parallel engine and the sharded air medium must be invisible in the
// output: every figure runner produces deep-equal results (and identical
// rendered tables) on one worker and on many. Configs here are the
// smallest that exercise every cell boundary (multiple bins, AP counts,
// topologies), so the whole file stays fast enough for the -race CI run.

// runBoth runs fn with one engine and medium worker, then with four, and
// compares the results.
func runBoth[T any](t *testing.T, name string, fn func() (T, error)) {
	t.Helper()
	defer SetWorkers(0)
	defer air.SetWorkers(0)
	SetWorkers(1)
	air.SetWorkers(1)
	serial, err := fn()
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	SetWorkers(4)
	air.SetWorkers(4)
	parallel, err := fn()
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v", name, serial, parallel)
	}
	if s, p := render(serial), render(parallel); s != p {
		t.Errorf("%s: rendered output differs\nserial:\n%s\nparallel:\n%s", name, s, p)
	}
}

// streamTrace runs fn with a JSONL StreamSink attached (header for the
// high-SNR default network with nAPs APs and as many clients) and returns
// the bytes it wrote.
func streamTrace(nAPs int, fn func(core.TraceSink) error) ([]byte, error) {
	cfg := core.DefaultConfig(nAPs, nAPs, HighSNR.Lo, HighSNR.Hi)
	meta := tracefmt.Meta{SampleRate: cfg.SampleRate, CarrierHz: cfg.CarrierHz, APs: nAPs, Clients: nAPs}
	var buf bytes.Buffer
	sink, err := tracefmt.NewStreamSink(&buf, meta, tracefmt.StreamOptions{})
	if err != nil {
		return nil, err
	}
	err = fn(sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return buf.Bytes(), err
}

// render calls String() when the result has one.
func render(v any) string {
	if s, ok := v.(interface{ String() string }); ok {
		return s.String()
	}
	return ""
}

func TestFig6Deterministic(t *testing.T) {
	runBoth(t, "fig6", func() (*Fig6Result, error) { return RunFig6(8, 1), nil })
}

// TestFig7Deterministic runs enough rounds per placement that the medium
// holds several shards of emissions, so the wander walk of the oscillators
// (the only figure that turns it on) is read under the sharded observe.
func TestFig7Deterministic(t *testing.T) {
	runBoth(t, "fig7", func() (*Fig7Result, error) { return RunFig7(2, 40, 1) })
}

func TestFig8Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "fig8", func() (*Fig8Result, error) { return RunFig8(3, 2, 1) })
}

func TestFig9Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "fig9", func() (*Fig9Result, error) { return RunFig9([]int{2, 3}, 2, 1, 1) })
}

func TestFig11Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "fig11", func() (*Fig11Result, error) { return RunFig11([]int{2}, 1, 1) })
}

func TestFig12Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "fig12", func() (*Fig12Result, error) { return RunFig12(2, 1, 1) })
}

func TestAblationsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "ablations", func() (*AblationResult, error) { return RunAblations(2, 1) })
}

func TestRobustnessDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "robustness", func() (*RobustnessResult, error) {
		return RunRobustness([]units.PPM{2, 20}, 2, 1)
	})
}

func TestAmortizationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	runBoth(t, "amortization", func() (*AmortizationResult, error) {
		return RunAmortization([]int{1, 4}, 2, 1)
	})
}
