package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mac_retransmissions_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if r.Counter("mac_retransmissions_total") != c {
		t.Fatal("second lookup returned a different instrument")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("mac_queue_depth")
	if g.Value() != 0 {
		t.Fatal("fresh gauge not zero")
	}
	g.Set(17)
	g.Set(3)
	if g.Value() != 3 {
		t.Fatalf("Value = %v, want 3", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_ms", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 115 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	// v <= bound bucketing: 0.5 and 1 land in le=1; 1.5 in le=2; 3 in
	// le=4; 9 and 100 overflow.
	want := []int64{2, 1, 1, 0, 2}
	for i, n := range want {
		if h.counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.counts[i], n, h.counts)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4, 8, 16})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1.5) // le=2
	}
	for i := 0; i < 10; i++ {
		h.Observe(12) // le=16
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := h.Quantile(0.95); got != 16 {
		t.Fatalf("p95 = %v, want 16", got)
	}
	h.Observe(1e9) // overflow reports the last finite bound
	if got := h.Quantile(1); got != 16 {
		t.Fatalf("p100 with overflow = %v, want 16", got)
	}
}

func TestHistogramBoundsFixedAtCreation(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{4, 1, 2}) // unsorted input is sorted
	h2 := r.Histogram("h", []float64{1000})    // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name returned different histograms")
	}
	h1.Observe(1.5)
	if h1.counts[1] != 1 {
		t.Fatalf("bounds not sorted at creation: %v", h1.counts)
	}
}

func TestExportDeterministicAcrossInsertionOrder(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("g_b").Set(2)
		r.Gauge("g_a").Set(1)
		r.Histogram("h", []float64{1, 10}).Observe(5)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	if a != b {
		t.Fatalf("export depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	// Sorted-name order must be visible in the byte stream.
	if ia, iz := strings.Index(a, "\nalpha "), strings.Index(a, "\nzeta "); ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("counters not name-sorted:\n%s", a)
	}
	// And every line must be a TYPE comment or a `name value` sample.
	for _, line := range strings.Split(strings.TrimSuffix(a, "\n"), "\n") {
		if f := strings.Fields(line); !(len(f) == 4 && f[0] == "#" && f[1] == "TYPE") && len(f) != 2 {
			t.Fatalf("malformed exposition line %q:\n%s", line, a)
		}
	}
}

func TestEmptyRegistryExport(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry export: %q", buf.String())
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 4, 8, 16, 32})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		h.Observe(5)
	})
	if allocs != 0 {
		t.Fatalf("hot-path recording allocates %v/op, want 0", allocs)
	}
}
