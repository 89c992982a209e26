// Command megamimo-perfgate diffs a fresh `megamimo-bench -json` run
// against the committed BENCH_PERF.json snapshot and fails on performance
// regressions, so the perf trajectory of the signal path is recorded and
// enforced rather than anecdotal.
//
// Three metrics are gated per figure, each against -max-regress (default
// 15%):
//
//   - allocs_per_op and bytes_per_op: compared raw. At -workers=1, for a
//     fixed seed and Go version, allocation counts and allocated bytes
//     move by a few allocations per figure, mostly with when the garbage
//     collector runs (the runtime paces it by measured time), far inside
//     the bound, so growth beyond it is a real change in the code's
//     allocation behavior; the bytes catch a few large buffers the count
//     misses.
//   - ns_per_op: machine-normalized first. The snapshot and the current
//     run usually come from different machines, so raw wall time is
//     meaningless; instead each figure's current/snapshot ratio is divided
//     by the median ratio across all figures. A figure only fails when it
//     slowed down >15% relative to the rest of the suite, which cancels
//     overall machine speed while still catching a single figure that
//     regressed.
//
// A single figure regeneration has real wall-time variance, so both sides
// should be a minimum over repeated runs: record the snapshot from ≥3
// runs, and pass every fresh run's JSON — the gate takes the per-figure
// minimum ns_per_op across all -current files before comparing (the
// standard benchstat-style noise floor).
//
// Each figure's printed output is gated too: a fresh run whose output
// differs from the snapshot's by a single byte fails with OUTPUT CHANGED,
// so a perf change cannot quietly move a figure.
//
// Exit status: 0 clean, 1 regression, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// figMetrics mirrors cmd/megamimo-bench's -json record (the fields the
// gate reads; extra fields are ignored).
type figMetrics struct {
	Figure      string `json:"figure"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	Workers     int    `json:"workers"`
	Output      string `json:"output"`
}

func main() {
	snapshot := flag.String("snapshot", "BENCH_PERF.json", "committed baseline from megamimo-bench -json")
	current := flag.String("current", "", "fresh megamimo-bench -json output to gate")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional regression per figure")
	flag.Parse()
	paths := flag.Args()
	if *current != "" {
		paths = append([]string{*current}, paths...)
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: megamimo-perfgate -snapshot BENCH_PERF.json fresh1.json [fresh2.json ...]")
		os.Exit(2)
	}

	base, err := readMetrics(*snapshot)
	if err != nil {
		fatal(err)
	}
	// changed names every figure whose output differs from the snapshot's
	// in any fresh run: outputs are deterministic, so one run is enough.
	cur := map[string]figMetrics{}
	changed := map[string]bool{}
	for _, path := range paths {
		more, err := readMetrics(path)
		if err != nil {
			fatal(err)
		}
		for name, m := range more {
			if b, ok := base[name]; ok && m.Output != b.Output {
				changed[name] = true
			}
		}
		mergeMin(cur, more)
	}

	shared := sharedFigures(base, cur)
	if len(shared) == 0 {
		fatal(fmt.Errorf("no figures in common between %s and %s", *snapshot, *current))
	}

	speed := medianSpeedRatio(base, cur, shared)
	fmt.Printf("perf gate: %d figures, machine speed ratio %.3f, threshold +%.0f%%\n",
		len(shared), speed, *maxRegress*100)

	failed := false
	for _, name := range shared {
		b, c := base[name], cur[name]
		allocRatio := ratio(float64(c.AllocsPerOp), float64(b.AllocsPerOp))
		bytesRatio := ratio(float64(c.BytesPerOp), float64(b.BytesPerOp))
		nsRatio := ratio(float64(c.NsPerOp), float64(b.NsPerOp)) / speed
		status := "ok"
		switch limit := 1 + *maxRegress; {
		case changed[name]:
			status = "OUTPUT CHANGED"
		case allocRatio > limit:
			status = "ALLOC REGRESSION"
		case bytesRatio > limit:
			status = "BYTES REGRESSION"
		case nsRatio > limit:
			status = "TIME REGRESSION"
		}
		failed = failed || status != "ok"
		fmt.Printf("  %-14s allocs %10d -> %10d (%+6.1f%%)   bytes %12d -> %12d (%+6.1f%%)   time x%.3f (normalized)   %s\n",
			name, b.AllocsPerOp, c.AllocsPerOp, (allocRatio-1)*100,
			b.BytesPerOp, c.BytesPerOp, (bytesRatio-1)*100, nsRatio, status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "megamimo-perfgate: regression or changed output vs committed snapshot; if intentional, regenerate BENCH_PERF.json (see README)")
		os.Exit(1)
	}
	fmt.Println("perf gate clean")
}

func readMetrics(path string) (map[string]figMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []figMetrics
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]figMetrics, len(list))
	for _, m := range list {
		out[m.Figure] = m
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no figure records", path)
	}
	return out, nil
}

// mergeMin folds another run into dst, keeping the per-figure minimum of
// each metric: repeated runs bound the scheduler and cache noise from
// below, which is the number worth gating.
func mergeMin(dst, more map[string]figMetrics) {
	for name, m := range more {
		d, ok := dst[name]
		if !ok {
			dst[name] = m
			continue
		}
		if m.NsPerOp < d.NsPerOp {
			d.NsPerOp = m.NsPerOp
		}
		if m.AllocsPerOp < d.AllocsPerOp {
			d.AllocsPerOp = m.AllocsPerOp
		}
		if m.BytesPerOp < d.BytesPerOp {
			d.BytesPerOp = m.BytesPerOp
		}
		dst[name] = d
	}
}

// sharedFigures returns the sorted figure names present in both runs, so
// a snapshot recorded before a new figure existed still gates the rest.
func sharedFigures(base, cur map[string]figMetrics) []string {
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// medianSpeedRatio estimates how much faster or slower the current
// machine is than the one that recorded the snapshot, as the median
// per-figure ns ratio. The median is robust to a few genuinely regressed
// figures, which is exactly what the gate must not normalize away.
func medianSpeedRatio(base, cur map[string]figMetrics, shared []string) float64 {
	ratios := make([]float64, 0, len(shared))
	for _, name := range shared {
		ratios = append(ratios, ratio(float64(cur[name].NsPerOp), float64(base[name].NsPerOp)))
	}
	sort.Float64s(ratios)
	n := len(ratios)
	if n%2 == 1 {
		return ratios[n/2]
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2
}

// ratio guards the zero-baseline corner: a figure that allocated nothing
// in the snapshot and still allocates nothing is unchanged (1.0); one
// that started allocating is an infinite regression.
func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return cur // vs 0: any growth is flagged via the threshold
	}
	return cur / base
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "megamimo-perfgate:", err)
	os.Exit(2)
}
