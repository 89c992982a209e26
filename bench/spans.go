package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark issued into the simulator, timed from
// outside. Wall-clock spans live only in benchmark output: they never enter
// the simulator's ether-clock trace or metrics files.
type span struct {
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil or switched-off tracer makes begin/end
// one branch each, so untraced passes time the same code path.
type tracer struct {
	on    bool
	t0    time.Time
	pass  int
	cell  int
	open  []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Cell: t.cell, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanStat summarizes every span of one name.
type spanStat struct {
	name  string
	calls int
	total time.Duration
	p50   time.Duration
	p95   time.Duration
}

// spanStats groups spans by name, sorted by total time, largest first.
func spanStats(spans []span) []spanStat {
	byName := map[string][]time.Duration{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	out := make([]spanStat, 0, len(byName))
	for name, ds := range byName {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := spanStat{name: name, calls: len(ds), p50: ds[len(ds)/2], p95: ds[len(ds)*95/100]}
		for _, d := range ds {
			st.total += d
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].name < out[j].name
	})
	return out
}

// topLevel sums the durations of spans no other span encloses.
func topLevel(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// family maps a span name to the metric family it reports under: the
// per-size JointTransmit spans ("core.JointTransmit.N4") share one family.
func family(name string) string {
	if strings.HasPrefix(name, "core.JointTransmit.") {
		return "core.JointTransmit"
	}
	return name
}

// writeSpans writes the spans as JSONL, one object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encoding error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
