package metrics

import (
	"encoding/json"
	"sort"
)

// CounterSample is one counter's reading at a sample point: the delta
// since the previous sample plus the running total.
type CounterSample struct {
	Name  string `json:"name"`
	Delta int64  `json:"delta"`
	Total int64  `json:"total"`
}

// GaugeSample is one gauge's point-in-time level.
type GaugeSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSample summarizes one histogram at a sample point: cumulative
// count/sum plus point-in-time quantile upper bounds.
type HistSample struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Sample is one time-series point: the registry snapshotted at an ether
// timestamp. Counters carry deltas (rates fall out of delta/Δt), gauges
// and histogram quantiles are point-in-time.
type Sample struct {
	At         int64           `json:"at"`
	Counters   []CounterSample `json:"counters,omitempty"`
	Gauges     []GaugeSample   `json:"gauges,omitempty"`
	Histograms []HistSample    `json:"histograms,omitempty"`
}

// Sampler turns a Registry's cumulative instruments into a time series on
// the ether clock: each Sample() call snapshots every instrument in
// sorted-name order and records counter deltas against the previous
// sample. It keeps no series; OnSample streams each point as it is taken.
// Like the registry it reads, a Sampler is single-threaded — the
// simulation loop drives it between rounds.
type Sampler struct {
	reg  *Registry
	prev map[string]int64

	// OnSample, when set, observes each sample as it is taken (e.g. to
	// publish it to a live endpoint or stream it to disk).
	OnSample func(Sample)
}

// NewSampler builds a sampler over reg.
func NewSampler(reg *Registry) *Sampler {
	return &Sampler{reg: reg, prev: map[string]int64{}}
}

// Sample snapshots the registry at ether time `at`, hands the point to
// OnSample, and returns it.
func (s *Sampler) Sample(at int64) Sample {
	out := Sample{At: at}

	names := make([]string, 0, len(s.reg.counters))
	for name := range s.reg.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.reg.counters[name].v
		out.Counters = append(out.Counters, CounterSample{
			Name: name, Delta: v - s.prev[name], Total: v,
		})
		s.prev[name] = v
	}

	names = names[:0]
	for name := range s.reg.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Gauges = append(out.Gauges, GaugeSample{Name: name, Value: s.reg.gauges[name].v})
	}

	names = names[:0]
	for name := range s.reg.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.reg.hists[name]
		out.Histograms = append(out.Histograms, HistSample{
			Name: name, Count: h.n, Sum: h.sum,
			P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		})
	}

	if s.OnSample != nil {
		s.OnSample(out)
	}
	return out
}

// MarshalSample renders one sample as its JSONL line, newline included —
// what an OnSample hook streams to disk, `jq`-able while a run is still
// going.
func MarshalSample(sm Sample) ([]byte, error) {
	b, err := json.Marshal(sm)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
