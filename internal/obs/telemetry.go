package obs

import (
	"bufio"
	"fmt"
	"os"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
	"megamimo/internal/tracefmt"
)

// Outputs names one run's telemetry outputs.
type Outputs struct {
	// TracePath is the JSONL trace file that tracefmt.Create opens with
	// the Trace options. An empty path still counts the stream: its
	// position is what a checkpoint records.
	TracePath string
	Trace     tracefmt.StreamOptions
	// SeriesPath is the metrics series, one metrics.MarshalSample line per
	// sample, counted from SeriesOffset with or without a file.
	SeriesPath   string
	SeriesOffset uint64
	// Server, when set, receives the tee'd events, the registry at each
	// sample and at Close, and the run's completion.
	Server *Server
}

// Telemetry is the streaming telemetry of one network's run: the trace
// stream, the metrics series and the optional HTTP server, wired to the
// network's tracer (Tee) and to a metrics.Sampler (OnSample) and closed
// together (Close). It lives on the simulation goroutine.
type Telemetry struct {
	// Trace is the trace stream; its Bytes is the logical position.
	Trace *tracefmt.StreamSink

	net        *core.Network
	server     *Server
	series     *bufio.Writer // nil without a SeriesPath
	seriesFile *os.File
	seriesN    uint64
	seriesErr  error
	samples    int
}

// Open creates out's files for net's run; nothing is attached until Tee.
// A fresh trace stream opens with the schema header for net's
// configuration.
func Open(net *core.Network, out Outputs) (*Telemetry, error) {
	trace, err := tracefmt.Create(out.TracePath, tracefmt.MetaFor(net.Cfg), out.Trace)
	if err != nil {
		return nil, err
	}
	t := &Telemetry{Trace: trace, net: net, server: out.Server, seriesN: out.SeriesOffset}
	if out.SeriesPath != "" {
		if t.seriesFile, err = os.Create(out.SeriesPath); err != nil {
			_ = trace.Close()
			return nil, err
		}
		t.series = bufio.NewWriter(t.seriesFile)
	}
	return t, nil
}

// Tee feeds the network's trace events to the server and, with trace, to
// the trace stream, replacing any earlier wiring.
func (t *Telemetry) Tee(trace bool) {
	var sinks []core.TraceSink
	if trace {
		sinks = append(sinks, t.Trace)
	}
	if t.server != nil {
		sinks = append(sinks, t.server)
	}
	t.net.Trace().SetSink(core.TeeSinks(sinks...))
}

// OnSample is a metrics.Sampler hook: it counts the sample, appends its
// line to the series and publishes the registry to the server. Like the
// trace stream, the series counts every encoded line, even after a failed
// write; the first encode or write error stops the writes and is returned
// by Close.
func (t *Telemetry) OnSample(sm metrics.Sample) {
	t.samples++
	line, err := metrics.MarshalSample(sm)
	if err == nil {
		t.seriesN += uint64(len(line))
		if t.series != nil && t.seriesErr == nil {
			_, err = t.series.Write(line)
		}
	}
	if t.seriesErr == nil {
		t.seriesErr = err
	}
	if t.server != nil {
		// A failed render keeps the last exposition; the run never
		// depends on its observer.
		_ = t.server.PublishMetrics(t.net.Metrics())
	}
}

// SeriesBytes is the series' logical position.
func (t *Telemetry) SeriesBytes() uint64 { return t.seriesN }

// Samples counts the samples OnSample received.
func (t *Telemetry) Samples() int { return t.samples }

// Close flushes and closes the trace stream and the series file,
// publishes the final registry to the server and marks the run done
// there, and returns the first error either output hit: a partial file
// must not pass for a complete one. The server serves on until its own
// Close.
func (t *Telemetry) Close() error {
	terr := t.Trace.Close()
	serr := t.seriesErr
	if t.series != nil {
		if ferr := t.series.Flush(); serr == nil {
			serr = ferr
		}
		if cerr := t.seriesFile.Close(); serr == nil {
			serr = cerr
		}
	}
	if t.server != nil {
		_ = t.server.PublishMetrics(t.net.Metrics())
		t.server.MarkDone()
	}
	switch {
	case terr != nil:
		return fmt.Errorf("trace stream: %w", terr)
	case serr != nil:
		return fmt.Errorf("metrics series: %w", serr)
	}
	return nil
}
