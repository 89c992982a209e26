// Command megamimo-trace analyzes and presents flight-recorder traces
// written by megamimo-sim -trace-out, one network per JSONL file:
//
//	megamimo-sim -trace-out run.jsonl && megamimo-trace chrome run.jsonl > run.json
//
// Usage:
//
//	megamimo-trace [flags] summary|phases|spans|anomalies|timeline|chrome|follow <trace-file>
//
// Subcommands:
//
//	summary    per-kind event counts, span totals and the covered window
//	phases     per-slave-AP phase-synchronization statistics: residual
//	           phase error vs the π/18 nulling budget, CFO in ppm
//	spans      duration distributions of the protocol spans (measure,
//	           round, joint-tx, traffic)
//	anomalies  check the trace against the paper's budgets; exits 1 if
//	           any violation is found, 0 on a clean trace
//	timeline   print the protocol timeline, one event per line
//	chrome     write the trace in Chrome trace-event format to stdout,
//	           for Perfetto or chrome://tracing
//	follow     tail a streaming JSONL trace (megamimo-sim -trace-out)
//	           while it is written, printing each budget violation the
//	           moment the online monitor trips it; exits 1 if any check
//	           tripped once the stream has been idle for -idle-exit
//	bisect     walk a soak run's checkpoint directory and run the anomaly
//	           gate on each inter-checkpoint window of the trace, naming
//	           the first window that violates a budget; exits 1 on a
//	           violation (usage: bisect <checkpoint-dir> <trace-file>)
//
// The budgets are tracefmt.DefaultBudget's (π/18, ±40 ppm). Exit 1 means a
// budget violation; a usage error or an unreadable input exits 2.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"megamimo/internal/checkpoint"
	"megamimo/internal/tracefmt"
)

func main() {
	var (
		poll     = flag.Duration("poll", 200*time.Millisecond, "follow: poll interval while the stream is idle")
		idleExit = flag.Duration("idle-exit", 5*time.Second, "follow: exit after the stream has been idle this long")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: megamimo-trace [flags] summary|phases|spans|anomalies|timeline|chrome|follow <trace-file>")
		fmt.Fprintln(os.Stderr, "       megamimo-trace [flags] bisect <checkpoint-dir> <trace-file>")
		flag.PrintDefaults()
	}
	flag.Parse()
	cmd := flag.Arg(0)
	wantArgs := 2
	if cmd == "bisect" {
		wantArgs = 3
	}
	if flag.NArg() != wantArgs {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(1)
	budget := tracefmt.DefaultBudget()

	if cmd == "follow" {
		// A zero poll busy-spins, and a zero idle exit judges a stream
		// that may still be growing after its first read.
		switch {
		case *poll <= 0:
			fatal(fmt.Errorf("-poll %s must be positive", *poll))
		case *idleExit <= 0:
			fatal(fmt.Errorf("-idle-exit %s must be positive", *idleExit))
		}
		os.Exit(follow(path, budget, *poll, *idleExit))
	}
	// Every flag paces follow: refuse one the other commands would ignore.
	flag.Visit(func(f *flag.Flag) { fatal(fmt.Errorf("-%s applies only to follow, not %s", f.Name, cmd)) })
	if cmd == "bisect" {
		os.Exit(bisect(path, flag.Arg(2), budget))
	}

	meta, events, err := tracefmt.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "summary":
		s := tracefmt.Summarize(meta, events)
		fmt.Printf("trace: %d events, %d spans", s.Events, s.Spans)
		if s.OpenSpans > 0 {
			fmt.Printf(" (%d left open)", s.OpenSpans)
		}
		fmt.Printf("\nwindow: t=%d..%d samples", s.AtMin, s.AtMax)
		if s.DurationMs > 0 {
			fmt.Printf(" (%.3f ms at %.0f MHz)", s.DurationMs, meta.SampleRate/1e6)
		}
		fmt.Printf("\nnetwork: %d APs, %d clients\n\nevents by kind:\n", meta.APs, meta.Clients)
		for _, kc := range s.ByKind {
			fmt.Printf("  %-12s %6d\n", kc.Kind, kc.Count)
		}

	case "phases":
		stats := tracefmt.PhaseStats(meta, events)
		if len(stats) == 0 {
			fmt.Println("no slave-ratio events in trace")
			return
		}
		fmt.Printf("phase synchronization per slave AP (budget π/18 = %.4f rad):\n", math.Pi/18)
		fmt.Printf("  %-4s %6s %12s %12s %12s %14s %10s\n",
			"AP", "N", "median|e|", "p95|e|", "max|e|", "CFO rad/smp", "rel ppm")
		for _, st := range stats {
			fmt.Printf("  %-4d %6d %12.5f %12.5f %12.5f %14.3e %10.2f\n",
				st.AP, st.N, st.MedianAbsRad, st.P95AbsRad, st.MaxAbsRad,
				st.CFORadPerSample, st.RelPPM)
		}

	case "spans":
		stats := tracefmt.SpanStats(meta, events)
		if len(stats) == 0 {
			fmt.Println("no completed spans in trace")
			return
		}
		fmt.Println("span durations (ms):")
		fmt.Printf("  %-12s %6s %10s %10s %10s\n", "kind", "N", "median", "p95", "max")
		for _, st := range stats {
			fmt.Printf("  %-12s %6d %10.4f %10.4f %10.4f\n",
				st.Kind, st.N, st.MedianMs, st.P95Ms, st.MaxMs)
		}

	case "anomalies":
		found := tracefmt.FindAnomalies(meta, events, budget)
		if len(found) == 0 {
			fmt.Println("no anomalies: every slave AP within the phase and CFO budgets, no degraded nulls or decodes")
			return
		}
		fmt.Printf("%d anomalies:\n", len(found))
		for _, a := range found {
			fmt.Println("  " + a.String())
		}
		os.Exit(1)

	case "timeline":
		w := bufio.NewWriter(os.Stdout)
		for _, e := range events {
			fmt.Fprintln(w, "  "+e.String())
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}

	case "chrome":
		if err := tracefmt.WriteChrome(os.Stdout, meta, events); err != nil {
			fatal(err)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// bisect localizes the first anomaly-gate violation of a checkpointed
// soak run to one inter-checkpoint window. It loads every checkpoint in
// dir for its ether-time boundary, slices the trace's events into the
// windows those boundaries delimit, and runs the batch anomaly gate on
// each window in order: the first violating window names the two
// checkpoints the regression landed between — the pair to diff or to
// resume from when reproducing. Returns the process exit code: 0 when
// every window is clean, 1 on a violation.
func bisect(dir, tracePath string, b tracefmt.Budget) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("bisect: no *.ckpt files in %s", dir))
	}
	type boundary struct {
		path   string
		at     int64
		rounds int
	}
	bounds := make([]boundary, 0, len(paths))
	for _, p := range paths {
		st, _, err := checkpoint.ReadAny(p)
		if err != nil {
			fatal(fmt.Errorf("bisect: %w", err))
		}
		bounds = append(bounds, boundary{path: p, at: st.Now, rounds: st.Rounds})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].at < bounds[j].at })

	meta, events, err := tracefmt.ReadFile(tracePath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bisect: %d checkpoints over %d events\n", len(bounds), len(events))

	// Window k holds the events up to and including checkpoint k's capture
	// time; the final window is the tail past the last checkpoint. Events
	// arrive time-ordered, so each window is one contiguous slice.
	clean := 0
	lo := 0
	for k := 0; k <= len(bounds); k++ {
		hi := len(events)
		if k < len(bounds) {
			for hi = lo; hi < len(events) && events[hi].At <= bounds[k].at; hi++ {
			}
		}
		from, to := "start", "end"
		if k > 0 {
			from = fmt.Sprintf("%s (round %d, t=%d)", filepath.Base(bounds[k-1].path), bounds[k-1].rounds, bounds[k-1].at)
		}
		if k < len(bounds) {
			to = fmt.Sprintf("%s (round %d, t=%d)", filepath.Base(bounds[k].path), bounds[k].rounds, bounds[k].at)
		}
		found := tracefmt.FindAnomalies(meta, events[lo:hi], b)
		if len(found) == 0 {
			fmt.Printf("window %d: %s -> %s: clean (%d events)\n", k, from, to, hi-lo)
			clean++
			lo = hi
			continue
		}
		fmt.Printf("window %d: %s -> %s: %d anomalies (%d events)\n", k, from, to, len(found), hi-lo)
		for _, a := range found {
			fmt.Println("  " + a.String())
		}
		fmt.Printf("first violation localized to window %d after %d clean windows\n", k, clean)
		return 1
	}
	fmt.Printf("all %d windows clean\n", clean)
	return 0
}

// follow tails a streaming JSONL trace, feeding each completed line to
// the online anomaly monitor and printing violations the moment they
// trip. Partial lines (the writer mid-flush) stay buffered until their
// newline arrives. Returns the process exit code: 0 healthy, 1 tripped.
func follow(path string, b tracefmt.Budget, poll, idleExit time.Duration) int {
	deadline := time.Now().Add(idleExit)
	var f *os.File
	for {
		var err error
		f, err = os.Open(path)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("follow: %s did not appear within %s", path, idleExit))
		}
		time.Sleep(poll)
	}
	defer f.Close()

	var (
		buf     []byte
		chunk   = make([]byte, 64<<10)
		mon     *tracefmt.Monitor
		printed int
		lineNo  int
	)
	for {
		n, err := f.Read(chunk)
		if n > 0 {
			deadline = time.Now().Add(idleExit)
			buf = append(buf, chunk[:n]...)
			for {
				nl := bytes.IndexByte(buf, '\n')
				if nl < 0 {
					break
				}
				line := bytes.TrimSpace(buf[:nl])
				buf = buf[nl+1:]
				lineNo++
				if len(line) == 0 {
					continue
				}
				if mon == nil {
					meta, err := tracefmt.UnmarshalHeader(line)
					if err != nil {
						fatal(err)
					}
					mon = tracefmt.NewMonitor(meta, b, tracefmt.DefaultMonitorWindow)
					fmt.Printf("following %s: %d APs, %d clients\n", path, meta.APs, meta.Clients)
					continue
				}
				e, err := tracefmt.UnmarshalEvent(line)
				if err != nil {
					fatal(fmt.Errorf("line %d: %w", lineNo, err))
				}
				mon.Observe(e)
				for _, v := range mon.Tripped()[printed:] {
					fmt.Printf("VIOLATION t=%-10d %s\n", v.At, v.Anomaly.String())
					printed++
				}
			}
		}
		if err != nil && err != io.EOF {
			fatal(err)
		}
		if n == 0 {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(poll)
		}
	}
	if mon == nil {
		fatal(fmt.Errorf("follow: no trace header within %s of idle", idleExit))
	}
	if mon.Healthy() {
		fmt.Printf("stream idle: %d events, all checks healthy\n", mon.Events())
		return 0
	}
	fmt.Printf("stream idle: %d events, %d checks tripped\n", mon.Events(), len(mon.Tripped()))
	return 1
}

// fatal exits 2: the input could not be judged.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "megamimo-trace:", err)
	os.Exit(2)
}
