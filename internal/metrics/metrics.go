// Package metrics is the simulator's runtime telemetry layer: counters,
// gauges and fixed-bucket histograms instrumented at the mac/phy/core
// boundaries (retransmissions, sync-header overhead, decode failures,
// queue depth) and exported as deterministic Prometheus text and JSONL
// time-series samples.
//
// The design constraints mirror the signal path's:
//
//   - Allocation-free on the hot path. Recording is a field increment or a
//     binary search over a fixed bucket table; instruments are resolved by
//     name once at wiring time and held as pointers, never looked up per
//     event. A joint transmission's allocation budget
//     (TestJointTransmitAllocBudget) covers the instrumented path.
//   - Deterministic output. Export walks instruments in sorted-name order,
//     so two runs that perform the same work emit byte-identical text —
//     the same replayability contract the experiment engine obeys.
//   - Single-threaded, like the Network that owns each registry. Parallel
//     experiment cells each own their network and therefore their
//     registry; nothing here is shared across goroutines.
package metrics

import (
	"math"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time level (queue depth, current MCS index).
type Gauge struct {
	v   float64
	set bool
}

// Set records the current level. NaN is ignored: every export format
// (JSON, JSONL series, Prometheus exposition) requires finite numbers,
// so a NaN must never enter an instrument.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) {
		return
	}
	g.v, g.set = v, true
}

// Value returns the last recorded level (0 before any Set).
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets: counts[i] holds
// observations with v <= bounds[i]; the final implicit bucket catches
// everything above the last bound. Bounds are fixed at creation, so
// Observe never allocates.
type Histogram struct {
	bounds []float64
	counts []int64
	n      int64
	sum    float64
}

// Observe records one value. NaN is ignored (see Gauge.Set): a single
// NaN observation would poison Sum and Mean for every later export.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average observation (0 before any Observe).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper bound on the q-quantile (0–1): the smallest
// bucket bound holding at least a q fraction of observations. Values in
// the overflow bucket report the last finite bound (the histogram cannot
// resolve beyond its table). Returns 0 before any Observe.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry holds a simulation run's instruments, keyed by name.
// Get-or-create accessors make wiring order-independent; recording through
// the returned pointers is allocation-free.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use; later calls reuse the existing
// instrument and ignore bounds (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}
