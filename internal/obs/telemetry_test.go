package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
	"megamimo/internal/tracefmt"
)

// testNetwork builds a small network with its recorder on.
func testNetwork(t *testing.T) *core.Network {
	t.Helper()
	net, err := core.New(core.DefaultConfig(2, 2, 18, 24))
	if err != nil {
		t.Fatal(err)
	}
	net.Trace().Enable(1 << 10)
	return net
}

// sampleN hooks a sampler over net's registry to tel and takes n samples.
func sampleN(net *core.Network, tel *Telemetry, n int) []byte {
	sampler := metrics.NewSampler(net.Metrics())
	sampler.OnSample = tel.OnSample
	var want []byte
	for i := 0; i < n; i++ {
		net.Metrics().Counter("test_total").Inc()
		line, _ := metrics.MarshalSample(sampler.Sample(int64(i)))
		want = append(want, line...)
	}
	return want
}

// TestTelemetrySeriesOffsets checks the series is written line for line
// and counted from its offset with or without a file, and that a trace
// stream continued at an offset writes no header.
func TestTelemetrySeriesOffsets(t *testing.T) {
	for _, withFile := range []bool{true, false} {
		net := testNetwork(t)
		out := Outputs{SeriesOffset: 100, Trace: tracefmt.StreamOptions{Offset: 50}}
		if withFile {
			out.SeriesPath = filepath.Join(t.TempDir(), "series.jsonl")
		}
		tel, err := Open(net, out)
		if err != nil {
			t.Fatal(err)
		}
		want := sampleN(net, tel, 3)
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		if got := tel.SeriesBytes(); got != 100+uint64(len(want)) {
			t.Errorf("file=%v: series position %d, want %d", withFile, got, 100+len(want))
		}
		if tel.Samples() != 3 || tel.Trace.Bytes() != 50 {
			t.Errorf("file=%v: %d samples, trace at %d; want 3 and 50", withFile, tel.Samples(), tel.Trace.Bytes())
		}
		if withFile {
			got, err := os.ReadFile(out.SeriesPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("series file:\n%s\nwant:\n%s", got, want)
			}
		}
	}
}

// TestTelemetryTeeAndClose checks Tee feeds the trace file and the server
// (or the server alone), and Close publishes the registry and marks the
// run done.
func TestTelemetryTeeAndClose(t *testing.T) {
	net := testNetwork(t)
	srv := startServer(t, Config{Meta: tracefmt.MetaFor(net.Cfg)})
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tel, err := Open(net, Outputs{TracePath: path, Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	tel.Tee(false)
	net.Trace().Emit(1, core.KindTraffic, core.TraceAttrs{}, "server only")
	tel.Tee(true)
	net.Trace().Emit(2, core.KindTraffic, core.TraceAttrs{}, "both")
	net.Metrics().Counter("test_total").Inc()
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	_, events, err := tracefmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Msg != "both" {
		t.Errorf("trace file holds %+v, want only the event after Tee(true)", events)
	}
	if _, body := get(t, srv, "/trace"); !strings.Contains(body, "server only") || !strings.Contains(body, `"both"`) {
		t.Errorf("/trace misses a tee'd event:\n%s", body)
	}
	if _, body := get(t, srv, "/metrics"); !strings.Contains(body, "test_total 1") {
		t.Errorf("Close did not publish the registry:\n%s", body)
	}
	if _, body := get(t, srv, "/healthz"); !strings.Contains(body, `"done": true`) {
		t.Errorf("Close did not mark the run done:\n%s", body)
	}
}

// TestTelemetrySeriesWriteError checks a series write failure is returned
// by Close, naming the series, while the position counts every line.
func TestTelemetrySeriesWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	net := testNetwork(t)
	tel, err := Open(net, Outputs{SeriesPath: "/dev/full"})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleN(net, tel, 200) // past the write buffer
	err = tel.Close()
	if err == nil || !strings.Contains(err.Error(), "metrics series") {
		t.Fatalf("Close = %v, want a metrics series error", err)
	}
	if tel.SeriesBytes() != uint64(len(want)) {
		t.Errorf("series position %d after the failure, want %d", tel.SeriesBytes(), len(want))
	}
}
