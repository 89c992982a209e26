package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestNaNGuards pins the satellite fix: NaN can never enter an
// instrument, so no export format ever sees one.
func TestNaNGuards(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Set(math.NaN())
	if g.Value() != 3.5 {
		t.Fatalf("NaN overwrote the gauge: %v", g.Value())
	}
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(2)
	h.Observe(math.NaN())
	if h.Count() != 1 || math.IsNaN(h.Sum()) || math.IsNaN(h.Mean()) {
		t.Fatalf("NaN observation poisoned the histogram: count=%d sum=%v", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("Prometheus export after NaN inputs: %v", err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("NaN leaked into Prometheus export")
	}
}

// TestEmptyHistogramSnapshotPinned pins the empty-instrument outputs the
// streaming sampler depends on: zero quantiles and mean, finite sums, no
// NaN anywhere in JSON or Prometheus form.
func TestEmptyHistogramSnapshotPinned(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_hist", []float64{1, 5, 25})
	if h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("empty histogram quantiles: p50=%v p99=%v, want 0", h.Quantile(0.5), h.Quantile(0.99))
	}
	if h.Mean() != 0 {
		t.Fatalf("empty histogram mean = %v, want 0", h.Mean())
	}
	sm := NewSampler(r).Sample(0)
	if len(sm.Histograms) != 1 {
		t.Fatalf("sample has %d histograms, want 1", len(sm.Histograms))
	}
	hs := sm.Histograms[0]
	if hs.Count != 0 || hs.Sum != 0 || hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
		t.Fatalf("empty histogram sample not pinned to zeros: %+v", hs)
	}
	line, err := MarshalSample(sm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(line), "NaN") {
		t.Fatalf("NaN in empty-histogram sample line: %s", line)
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "NaN") {
		t.Fatalf("NaN in Prometheus exposition:\n%s", prom.String())
	}
}

// TestEmptyRegistrySamplePinned pins the zero-instrument sample shape.
func TestEmptyRegistrySamplePinned(t *testing.T) {
	sm := NewSampler(NewRegistry()).Sample(42)
	line, err := MarshalSample(sm)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(line); got != "{\"at\":42}\n" {
		t.Fatalf("empty-registry sample line = %q, want {\"at\":42}", got)
	}
	var prom bytes.Buffer
	if err := NewRegistry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.Len() != 0 {
		t.Fatalf("empty registry Prometheus output = %q, want empty", prom.String())
	}
}

// TestSamplerDeltas checks counters sample as deltas against the prior
// point while totals stay cumulative, and that OnSample sees each point
// as Sample returns it.
func TestSamplerDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx_total")
	g := r.Gauge("queue_depth")
	s := NewSampler(r)
	var series []Sample
	s.OnSample = func(sm Sample) { series = append(series, sm) }

	c.Add(5)
	g.Set(3)
	s1 := s.Sample(100)
	c.Add(2)
	g.Set(1)
	s2 := s.Sample(200)
	s3 := s.Sample(300)

	if s1.Counters[0].Delta != 5 || s1.Counters[0].Total != 5 {
		t.Fatalf("first sample: %+v", s1.Counters[0])
	}
	if s2.Counters[0].Delta != 2 || s2.Counters[0].Total != 7 {
		t.Fatalf("second sample: %+v", s2.Counters[0])
	}
	if s3.Counters[0].Delta != 0 || s3.Counters[0].Total != 7 {
		t.Fatalf("idle sample: %+v", s3.Counters[0])
	}
	if s2.Gauges[0].Value != 1 {
		t.Fatalf("gauge not point-in-time: %+v", s2.Gauges[0])
	}
	if !reflect.DeepEqual(series, []Sample{s1, s2, s3}) {
		t.Fatalf("OnSample saw %+v, want the three returned samples", series)
	}
}

// TestSamplerOnSampleHook checks the live-streaming hook fires per sample.
func TestSamplerOnSampleHook(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	s := NewSampler(r)
	var got []int64
	s.OnSample = func(sm Sample) { got = append(got, sm.At) }
	s.Sample(1)
	s.Sample(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OnSample saw %v, want [1 2]", got)
	}
}

// TestWritePrometheusFormat pins the exposition-format rendering: TYPE
// lines, cumulative buckets, _sum/_count, sorted instrument order.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.Counter("a_total").Add(1)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b_total counter",
		"b_total 3",
		"# TYPE depth gauge",
		"depth 2.5",
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 2`,
		`lat_ms_bucket{le="+Inf"} 3`,
		"lat_ms_sum 105.5",
		"lat_ms_count 3",
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("exposition output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
