package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per instrument, histograms
// with *cumulative* `_bucket{le="…"}` series plus `_sum` and `_count`.
// Output walks instruments in sorted-name order and is byte-identical for
// identical recorded state.
//
// Instrument names are used as metric names verbatim; the repo's
// snake_case names are valid Prometheus identifiers by construction.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, r.counters[name].v)
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %s\n", name, promFloat(r.gauges[name].v))
	}

	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum int64
		for i, c := range h.counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = promFloat(h.bounds[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(bw, "%s_sum %s\n", name, promFloat(h.sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.n)
	}
	return bw.Flush()
}

// promFloat renders a float the way the exposition format expects.
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }
