package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, m)
		}
	}
	layers := perLayer()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := bj.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, got, m)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// and checks that each run is correct and reports every metric
// BENCHMARK.json names, finite and in its unit. runWorkload itself fails an
// operation when the simulated outputs differ across passes, at two workers
// or through experiment.Map.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, options{seed: 1, traced: traced, toy: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed:\n%s",
					w.name, traced, r.correct, r.failed, r.attempted, strings.Join(r.lines, "\n"))
			}
			if _, err := r.line(traced); err != nil {
				t.Errorf("traced=%v: %v", traced, err)
			}
			if len(r.digest) != 64 || len(r.sim) == 0 {
				t.Errorf("%s: sim_digest %q, %d simulated results", w.name, r.digest, len(r.sim))
			}
		}
	}
}
