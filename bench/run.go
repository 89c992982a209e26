package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"runtime"
	runmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"megamimo/internal/air"
	"megamimo/internal/experiment"
	"megamimo/internal/stats"
)

// passResult is one pass over a workload's cells.
type passResult struct {
	traced      bool
	setup, run  time.Duration
	allocBytes  uint64
	gcCycles    uint32
	gcCPU       float64
	ops, failed int
	errs        []error
	sums        [][32]byte // per-cell digests of the simulated outputs
	sim         samples
	counts      map[string]float64
}

func (p *passResult) digest() [32]byte {
	h := sha256.New()
	for _, s := range p.sums {
		h.Write(s[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func (p *passResult) add(out *cellOut) {
	p.ops += out.ops
	p.failed += out.failed
	if out.err != nil {
		p.errs = append(p.errs, out.err)
	}
	p.sums = append(p.sums, out.sum())
	for _, k := range slices.Sorted(maps.Keys(out.sim)) {
		p.sim[k] = append(p.sim[k], out.sim[k]...)
	}
	for _, k := range slices.Sorted(maps.Keys(out.counts)) {
		if k == "mac.queue_depth_p95" {
			p.counts[k] = math.Max(p.counts[k], out.counts[k])
		} else {
			p.counts[k] += out.counts[k]
		}
	}
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []runmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runmetrics.Read(s)
	return s[0].Value.Float64()
}

// runPass runs every cell once: set-up, then its timed operations. The
// cells stay live until the pass ends. Dropping each one after it ran cut
// peak RSS by 2.4x to 8.6x but multiplied the GC cycles, and on two vCPUs
// shared with other tenants that made run_s and setup_s slower and noisier.
func runPass(cells []cell, tr *tracer) *passResult {
	p := &passResult{traced: tr != nil && tr.on, sim: samples{}, counts: map[string]float64{}}
	var m0, m1 runtime.MemStats
	for i, c := range cells {
		if tr != nil {
			tr.cell = i
		}
		out := newCellOut()
		t0 := time.Now()
		err := c.setup(tr)
		p.setup += time.Since(t0)
		if err != nil {
			out.ops, out.failed, out.err = c.ops(), c.ops(), fmt.Errorf("set-up: %w", err)
			p.add(out)
			continue
		}
		runtime.ReadMemStats(&m0)
		gc0 := gcCPUSeconds()
		t1 := time.Now()
		c.run(tr, out)
		p.run += time.Since(t1)
		runtime.ReadMemStats(&m1)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcCycles += m1.NumGC - m0.NumGC
		p.gcCPU += gcCPUSeconds() - gc0
		p.add(out)
	}
	return p
}

// runFresh runs one cell's set-up and operations untraced and returns the
// digest of its simulated outputs.
func runFresh(c cell) ([32]byte, error) {
	if err := c.setup(nil); err != nil {
		return [32]byte{}, fmt.Errorf("set-up: %w", err)
	}
	out := newCellOut()
	c.run(nil, out)
	return out.sum(), out.err
}

// runCells runs fresh cells through experiment.Map at the given worker
// count and returns the wall time and per-cell digests.
func runCells(cells []cell, workers int) (time.Duration, [][32]byte, error) {
	experiment.SetWorkers(workers)
	defer experiment.SetWorkers(1)
	t0 := time.Now()
	sums, err := experiment.Map(len(cells), func(i int) ([32]byte, error) { return runFresh(cells[i]) })
	return time.Since(t0), sums, err
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	digest            string
	sim               []simValue
	spans             []span
	lines             []string // human-readable report
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one consistency check as an operation, failed when err is set.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.printf("FAILED %v", err)
	}
}

// runWorkload runs one untimed warm-up pass of w, times passes for
// o.seconds, then checks that the simulated outputs repeat across passes
// and at two workers. With o.traced every other timed pass records spans,
// and the layer probes run afterwards.
func runWorkload(w *workload, o options) (*result, error) {
	experiment.SetWorkers(1)
	air.SetWorkers(1)
	r := &result{workload: w.name, metrics: map[string]float64{}}
	tr := newTracer()
	// The warm-up pass fills caches and grows the heap and the simulator's
	// scratch; its outputs are the reference every timed pass must repeat.
	passes := []*passResult{runPass(w.cells(o.seed, o.toy), nil)}
	var plain, traced []*passResult
	// However short o.seconds is, every reported statistic has at least
	// three samples; the smoke test's toy runs settle for one.
	minPasses := 3
	if o.toy {
		minPasses = 1
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 1; len(plain) < minPasses || (o.traced && len(traced) < minPasses) || time.Since(start) < budget; i++ {
		tr.on, tr.pass = o.traced && i%2 == 0, i
		p := runPass(w.cells(o.seed, o.toy), tr)
		passes = append(passes, p)
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	tr.on = false

	first := passes[0]
	ref := first.digest()
	for i, p := range passes {
		r.attempted += p.ops
		r.failed += p.failed
		for _, err := range p.errs {
			r.printf("FAILED pass %d: %v", i, err)
		}
		if i > 0 {
			var err error
			if p.digest() != ref {
				err = fmt.Errorf("pass %d simulated outputs differ from pass 0", i)
			}
			r.check(err)
		}
	}
	r.check(workerInvariance(w, o, first.sums[0]))
	r.digest = hex.EncodeToString(ref[:])
	r.sim = w.sim(first.sim)
	for _, s := range r.sim {
		if !finite(s.value) {
			r.check(fmt.Errorf("simulated %s is %v", s.name, s.value))
		}
	}

	setup := values(plain, func(p *passResult) float64 { return p.setup.Seconds() })
	run := values(plain, func(p *passResult) float64 { return p.run.Seconds() })
	alloc := values(plain, func(p *passResult) float64 { return float64(p.allocBytes) / 1e6 })
	r.printf("workload %s, seed %d: warm-up and %d timed passes (%d traced), %d ops, %d failed",
		w.name, o.seed, len(passes)-1, len(traced), r.attempted, r.failed)
	r.printf("sim_digest %s", r.digest)
	for _, s := range r.sim {
		r.printf("sim %-16s %12.4f %s", s.name, s.value, s.unit)
	}
	r.printf("%-12s %12s %12s %12s %4s", "metric", "median", "IQR", "min", "n")
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"setup_s", setup}, {"run_s", run}, {"alloc_mb", alloc}} {
		r.printf("%-12s %12.4f %12.4f %12.4f %4d", m.name, stats.Median(m.xs), iqr(m.xs), minOf(m.xs), len(m.xs))
	}

	if !o.traced {
		r.metrics["setup_s"] = stats.Median(setup)
		// The fastest pass: interference from other tenants of a shared host
		// only adds time, and across runs the minimum over a run's passes
		// repeats more closely than their median (README.md has the numbers).
		r.metrics["run_s"] = minOf(run)
		r.metrics["alloc_mb"] = stats.Median(alloc)
		r.metrics["peak_rss_mb"] = peakRSSMB()
	} else if err := r.layerMetrics(w, o, tr.spans, first, plain, traced); err != nil {
		return nil, err
	}
	r.spans = tr.spans
	r.correct = r.failed == 0
	return r, nil
}

// workerInvariance re-runs the first cell with two experiment and air
// workers and compares its digest with the one-worker run.
func workerInvariance(w *workload, o options, want [32]byte) error {
	experiment.SetWorkers(2)
	air.SetWorkers(2)
	defer experiment.SetWorkers(1)
	defer air.SetWorkers(1)
	sum, err := runFresh(w.cells(o.seed, o.toy)[0])
	if err != nil {
		return fmt.Errorf("first cell at 2 workers: %w", err)
	}
	if sum != want {
		return fmt.Errorf("first cell's simulated outputs differ between 1 and 2 workers")
	}
	return nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func (r *result) layerMetrics(w *workload, o options, spans []span, first *passResult, plain, traced []*passResult) error {
	var wall time.Duration
	for _, p := range traced {
		wall += p.setup + p.run
	}
	share := map[string]time.Duration{}
	for _, s := range spans {
		share[family(s.Name)] += s.dur()
	}
	for _, name := range spanShares {
		r.metrics[name+".share"] = share[name].Seconds() / wall.Seconds()
	}
	p50 := map[string]time.Duration{}
	r.printf("%-36s %7s %10s %10s %7s", "span", "calls", "p50_ms", "p95_ms", "share")
	for _, st := range spanStats(spans) {
		p50[st.name] = st.p50
		r.printf("%-36s %7d %10.4f %10.4f %7.4f", st.name, st.calls, ms(st.p50), ms(st.p95), st.total.Seconds()/wall.Seconds())
	}
	for _, name := range spanMedians {
		r.metrics[name+".p50_ms"] = ms(p50[name])
	}
	unattributed := 1 - topLevel(spans).Seconds()/wall.Seconds()
	r.metrics["trace.unattributed_share"] = unattributed
	if unattributed > 0.1 {
		r.printf("%.1f%% of the traced passes is outside every span: cell construction, payload generation, digests and checks", 100*unattributed)
	}

	probes, stop, err := buildProbes(o.seed)
	if err != nil {
		return fmt.Errorf("building probes: %w", err)
	}
	batches := probeBatches
	if o.toy {
		batches = 1
	}
	for _, p := range probes {
		v, err := p.measure(batches)
		if err != nil {
			_ = stop() // the probe error is the one to report
			return err
		}
		r.metrics[p.name] = v
	}
	if err := stop(); err != nil {
		return fmt.Errorf("closing the probe stream sink: %w", err)
	}
	if w.name == "scaling" {
		r.printJointTransmitAttribution(p50)
	}

	for _, name := range countNames {
		r.metrics[name] = first.counts[name]
	}
	streams := first.counts["core.streams_delivered"] + first.counts["phy.decode_failures"] + first.counts["phy.fcs_failures"]
	r.metrics["core.stream_ok_ratio"] = first.counts["core.streams_delivered"] / math.Max(streams, 1)
	r.metrics["runtime.gc_cycles"] = medianOf(plain, func(p *passResult) float64 { return float64(p.gcCycles) })
	r.metrics["runtime.gc_cpu_s"] = medianOf(plain, func(p *passResult) float64 { return p.gcCPU })

	one, sums1, err := runCells(w.cells(o.seed, o.toy), 1)
	if err != nil {
		return fmt.Errorf("cells through experiment.Map at 1 worker: %w", err)
	}
	two, sums2, err := runCells(w.cells(o.seed, o.toy), 2)
	if err != nil {
		return fmt.Errorf("cells through experiment.Map at 2 workers: %w", err)
	}
	for i := range first.sums {
		var err error
		if sums1[i] != first.sums[i] || sums2[i] != first.sums[i] {
			err = fmt.Errorf("cell %d simulated outputs differ through experiment.Map", i)
		}
		r.check(err)
	}
	r.metrics["experiment.Map.speedup_w2"] = one.Seconds() / two.Seconds()
	runOf := func(p *passResult) float64 { return p.run.Seconds() }
	r.metrics["trace.overhead"] = minOf(values(traced, runOf))/minOf(values(plain, runOf)) - 1
	return nil
}

// printJointTransmitAttribution compares the 8-AP JointTransmit median with
// the sum of the probes it is built from: per stream one frame build, one
// antenna's joint synthesis, one emission, one observation and one 1500-byte
// decode.
func (r *result) printJointTransmitAttribution(p50 map[string]time.Duration) {
	jt := p50["core.JointTransmit.N8"]
	if jt <= 0 {
		return
	}
	perStream := r.metrics["phy.TX.FrameSymbols.1500B.us"] + r.metrics["phy.TX.SynthesizeJointInto.N8.us"] +
		r.metrics["air.Air.Transmit.N8.us"] + r.metrics["air.Air.Observe.N8.us"] + r.metrics["phy.RX.Decode.1500B.us"]
	r.printf("core.JointTransmit.probe_attributed_share %.3f (8 streams x %.0f us of probes / %.0f us p50)",
		8*perStream/float64(jt.Microseconds()), perStream, float64(jt.Microseconds()))
}

func values(ps []*passResult, f func(*passResult) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func medianOf(ps []*passResult, f func(*passResult) float64) float64 {
	return stats.Median(values(ps, f))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func iqr(xs []float64) float64 { return stats.Percentile(xs, 75) - stats.Percentile(xs, 25) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// peakRSSMB is the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
