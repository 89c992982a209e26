// Command bench is the repository benchmark. It drives the simulator only
// through its public packages, times those calls from outside, and checks
// that the simulated outputs are correct and repeat exactly.
//
// One workload in this process, as BENCHMARK.json runs it (from the
// repository root, through bench/run.sh, or from bench/ with go run .):
//
//	bench -workload scaling -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Without -workload the
// command runs every workload in its own process, repeats interleaved, and
// prints the median, IQR and minimum of each end-to-end metric; with
// -check-repeat it does that twice and judges each metric's two medians
// against its bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are one run's inputs.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	toy     bool // shrink every workload for the smoke test
}

func main() {
	name := flag.String("workload", "", "run only this workload, in this process: scaling|remeasure|demand|faults")
	seed := flag.Int64("seed", 1, "seed every topology, payload, arrival and fault derives from")
	seconds := flag.Float64("seconds", 20, "how long one run keeps timing passes")
	trace := flag.Int("trace", 0, "1 records spans and probes the layers, reporting per-layer metrics")
	checkRepeat := flag.Bool("check-repeat", false, "run two sets of repeats and judge each end-to-end metric against its bound")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	var err error
	if *name == "" {
		err = orchestrate(o, *checkRepeat)
	} else {
		err = runOne(*name, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// simLine carries the simulated results to the orchestrating process; it
// is printed just before the result line.
type simLine struct {
	Digest  string                 `json:"digest"`
	Results map[string]metricValue `json:"results"`
}

const simPrefix = "sim_results "

func runOne(name string, o options) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	line, err := r.line(o.traced)
	if err != nil {
		return err
	}
	if o.traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.printf("spans: %s (%d)", path, len(r.spans))
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	sim := simLine{Digest: r.digest, Results: map[string]metricValue{}}
	for _, s := range r.sim {
		sim.Results[s.name] = metricValue{Value: s.value, Unit: s.unit}
	}
	b, err := json.Marshal(sim)
	if err != nil {
		return fmt.Errorf("encoding simulated results: %w", err)
	}
	fmt.Println(simPrefix + string(b))
	b, err = json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// line assembles the result line from the metric table, refusing a missing
// or non-finite value.
func (r *result) line(traced bool) (resultLine, error) {
	ms := endToEnd
	if traced {
		ms = perLayer()
	}
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		v, ok := r.metrics[m.name]
		if !ok || !finite(v) {
			return out, fmt.Errorf("%s: metric %s is %v", r.workload, m.name, v)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}
