package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"megamimo/internal/stats"
)

// childRun is one single-workload run's parsed output.
type childRun struct {
	line resultLine
	sim  simLine
}

// runChild runs one workload in a fresh process of this binary and waits
// for it to exit.
func runChild(exe, name string, o options) (*childRun, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var c childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), simPrefix); ok {
			if err := json.Unmarshal([]byte(s), &c.sim); err != nil {
				return nil, fmt.Errorf("%s: simulated results: %w", name, err)
			}
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &c.line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &c, nil
}

// repeats is the number of runs per workload in one set.
const repeats = 5

// orchestrate runs every workload repeats times, each run in its own
// process, interleaving the workloads (A B C D A B C D ...) so that slow
// drift of the host spreads over all of them. With checkRepeat it runs two
// such sets and judges every end-to-end metric against its bound: each
// set's IQR over median, and the second set's median against the first's.
func orchestrate(o options, checkRepeat bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printEnvironment()
	sets := 1
	if checkRepeat {
		sets = 2
	}
	runs := make([]map[string][]*childRun, sets)
	for set := range runs {
		runs[set] = map[string][]*childRun{}
		for rep := 0; rep < repeats; rep++ {
			for _, w := range workloads {
				c, err := runChild(exe, w.name, o)
				if err != nil {
					return err
				}
				runs[set][w.name] = append(runs[set][w.name], c)
				fmt.Fprintf(os.Stderr, "set %d, repeat %d, %s: correct=%v\n", set+1, rep+1, w.name, c.line.Correct)
			}
		}
	}

	failures := 0
	for _, w := range workloads {
		var all []*childRun
		for _, set := range runs {
			all = append(all, set[w.name]...)
		}
		attempted, failed, digests := 0, 0, map[string]int{}
		for _, c := range all {
			attempted += c.line.Attempted
			failed += c.line.Failed
			digests[c.sim.Digest]++
		}
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		fmt.Printf("ops %d, failed_ops %d over %d runs\n", attempted, failed, len(all))
		if len(digests) != 1 {
			failures++
			fmt.Printf("FAIL: %d different sim_digest values across runs\n", len(digests))
		}
		fmt.Printf("sim_digest %s\n", all[0].sim.Digest)
		for _, name := range slices.Sorted(maps.Keys(all[0].sim.Results)) {
			v := all[0].sim.Results[name]
			fmt.Printf("  %-16s %12.4f %s (simulated)\n", name, v.Value, v.Unit)
		}
		fmt.Printf("  %-16s %12s %12s %12s %s\n", "metric", "median", "IQR", "min", "unit")
		for _, m := range endToEnd {
			xs := metricValues(all, m.name)
			fmt.Printf("  %-16s %12.4f %12.4f %12.4f %s\n", m.name, stats.Median(xs), iqr(xs), minOf(xs), m.unit)
		}
		if failed > 0 {
			failures++
		}
	}

	if checkRepeat {
		fmt.Printf("\n%-10s %-12s %12s %12s %10s %10s %7s  %s\n", "workload", "metric", "median A", "median B", "IQR/med A", "IQR/med B", "bound", "verdict")
		for _, w := range workloads {
			for _, m := range endToEnd {
				a, b := metricValues(runs[0][w.name], m.name), metricValues(runs[1][w.name], m.name)
				ma, mb := stats.Median(a), stats.Median(b)
				sa, sb := iqr(a)/ma, iqr(b)/mb
				worse := (mb - ma) / ma
				if m.better == "higher" {
					worse = -worse
				}
				verdict := "PASS"
				if worse > m.bound || sa > m.bound || sb > m.bound {
					verdict = "FAIL"
					failures++
				}
				fmt.Printf("%-10s %-12s %12.4f %12.4f %10.4f %10.4f %7.3f  %s\n", w.name, m.name, ma, mb, sa, sb, m.bound, verdict)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d checks failed", failures)
	}
	return nil
}

func metricValues(runs []*childRun, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, c := range runs {
		xs[i] = c.line.Metrics[name].Value
	}
	return xs
}

// printEnvironment records what the numbers were measured on.
func printEnvironment() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("environment: %s %s/%s, GOMAXPROCS %d, %d CPUs, %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), model)
}
