// Command megamimo-bench regenerates every table and figure of the
// paper's evaluation section (§11). Each subcommand prints the same rows
// or series the corresponding figure plots.
//
// Usage:
//
//	megamimo-bench [flags] fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|ablations|robustness|amortization|workload|chaos|all
//
// Flags scale the experiment size; the defaults approximate the paper's
// methodology (20 topologies per point, 10 APs max) and take minutes.
// Use -quick for a fast smoke run. Experiments fan their independent cells
// across -workers goroutines; the output is byte-identical at any worker
// count. No figure writes a flight-recorder trace: a trace holds one
// network, and megamimo-sim -trace-out records one closed-loop run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"megamimo/internal/air"
	"megamimo/internal/experiment"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// figures are the accepted figure arguments.
var figures = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"ablations", "robustness", "amortization", "workload", "chaos", "all"}

// figMetrics is one figure's machine-readable record for -json mode. One
// "op" is one full figure regeneration; NsPerOp and the allocation columns
// feed the committed BENCH_PERF.json snapshot that cmd/megamimo-perfgate
// diffs in CI. Allocation counts at -workers=1 vary by a few allocations
// per figure, mostly with when the garbage collector runs; NsPerOp is
// machine-dependent and the gate normalizes it before comparing.
type figMetrics struct {
	Figure      string  `json:"figure"`
	Seconds     float64 `json:"seconds"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Workers     int     `json:"workers"`
	Output      string  `json:"output"`
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "random seed")
		topos      = flag.Int("topologies", 20, "random topologies per point (paper: 20)")
		rounds     = flag.Int("rounds", 4, "joint transmissions per topology")
		maxAPs     = flag.Int("max-aps", 10, "largest AP count for scaling figures")
		quick      = flag.Bool("quick", false, "small fast run (2 topologies, 6 APs max)")
		workers    = flag.Int("workers", 0, "parallel experiment cells (0 = GOMAXPROCS)")
		jsonOut    = flag.Bool("json", false, "emit per-figure metrics as JSON instead of tables")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	which := flag.Arg(0)
	if flag.NArg() != 1 || !slices.Contains(figures, which) {
		if flag.NArg() == 1 {
			fmt.Fprintf(os.Stderr, "megamimo-bench: unknown figure %q\n", which)
		}
		fmt.Fprintln(os.Stderr, "usage: megamimo-bench [flags] "+strings.Join(figures, "|"))
		os.Exit(2)
	}
	// The user's values are checked before -quick overrides them.
	for _, c := range []struct {
		flag     string
		val, min int
	}{{"-topologies", *topos, 1}, {"-rounds", *rounds, 1}, {"-max-aps", *maxAPs, 2}, {"-workers", *workers, 0}} {
		if c.val < c.min {
			fmt.Fprintf(os.Stderr, "megamimo-bench: %s must be at least %d, got %d\n", c.flag, c.min, c.val)
			os.Exit(2)
		}
	}
	if *quick {
		*topos, *rounds, *maxAPs = 2, 2, 6
	}
	experiment.SetWorkers(*workers)
	air.SetWorkers(*workers)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var metrics []figMetrics
	run := func(name string, f func() (string, error)) {
		if which != name && which != "all" &&
			!(name == "fig9" && which == "fig10") &&
			!(name == "fig12" && which == "fig13") {
			return
		}
		var before runtime.MemStats
		if *jsonOut {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if *jsonOut {
			elapsed := time.Since(start)
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			metrics = append(metrics, figMetrics{
				Figure:      name,
				Seconds:     elapsed.Seconds(),
				NsPerOp:     elapsed.Nanoseconds(),
				AllocsPerOp: after.Mallocs - before.Mallocs,
				BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
				Workers:     experiment.Workers(),
				Output:      out,
			})
			return
		}
		fmt.Print(out)
	}

	run("fig5", func() (string, error) {
		return fmt.Sprintln(experiment.RunFig5(*seed)), nil
	})
	run("fig6", func() (string, error) {
		return fmt.Sprintln(experiment.RunFig6(100, *seed)), nil
	})
	run("fig7", func() (string, error) {
		r, err := experiment.RunFig7(max(2, *topos/2), 40, *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("fig8", func() (string, error) {
		r, err := experiment.RunFig8(*maxAPs, max(1, *topos/4), *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r) +
			fmt.Sprintf("high-SNR INR slope: %.3f dB per AP-client pair (paper: ~0.13)\n\n",
				r.SlopePerPair(experiment.HighSNR.Name)), nil
	})
	run("fig9", func() (string, error) {
		counts := apCounts(*maxAPs)
		r, err := experiment.RunFig9(counts, *topos, *rounds, *seed)
		if err != nil {
			return "", err
		}
		out := fmt.Sprintln(r)
		if which == "fig10" || which == "all" {
			out += fmt.Sprintln(experiment.Fig10From(r))
		}
		return out, nil
	})
	run("fig11", func() (string, error) {
		r, err := experiment.RunFig11([]int{2, 4, 6, 8, 10}, max(1, *topos/4), *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("ablations", func() (string, error) {
		r, err := experiment.RunAblations(max(2, *topos/5), *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("amortization", func() (string, error) {
		r, err := experiment.RunAmortization([]int{1, 2, 4, 8, 16}, max(2, *topos/5), *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("robustness", func() (string, error) {
		r, err := experiment.RunRobustness([]units.PPM{0.5, 2, 5, 10, 20}, max(2, *topos/5), *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("workload", func() (string, error) {
		loads := []float64{1, 2, 4, 8, 16}
		nAPs, seconds := 4, 0.02
		if *quick {
			loads, nAPs, seconds = []float64{2, 8}, 2, 0.005
		}
		r, err := experiment.RunWorkload(loads, nAPs, max(2, *topos/5), traffic.Poisson, seconds, *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("chaos", func() (string, error) {
		intensities := []float64{0, 100, 300, 600}
		nAPs, seconds := 4, 0.02
		if *quick {
			intensities, seconds = []float64{0, 600}, 0.005
		}
		r, err := experiment.RunChaos(intensities, nAPs, max(2, *topos/5), seconds, *seed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintln(r), nil
	})
	run("fig12", func() (string, error) {
		r, err := experiment.RunFig12(*topos, *rounds, *seed)
		if err != nil {
			return "", err
		}
		out := fmt.Sprintln(r)
		if which == "fig13" || which == "all" {
			out += fmt.Sprintln(experiment.Fig13From(r))
		}
		return out, nil
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(metrics); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

func apCounts(maxAPs int) []int {
	var out []int
	for n := 2; n <= maxAPs; n++ {
		out = append(out, n)
	}
	return out
}
