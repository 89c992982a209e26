package experiment

import (
	"fmt"

	"megamimo/internal/stats"
	"megamimo/internal/traffic"
)

// WorkloadPoint is one offered-load step of the demand sweep: delivered
// throughput, fairness and tail latency for both systems, medians across
// topologies.
type WorkloadPoint struct {
	// OfferedMbpsPerClient is the per-client demand at this step.
	OfferedMbpsPerClient float64
	// Delivered aggregate throughput (Mb/s), median across topologies.
	MegaMIMOMbps, BaselineMbps float64
	// Jain fairness over per-client delivered throughput.
	MegaMIMOFairness, BaselineFairness float64
	// Median p95 delivery latency (ms); NaN when nothing was delivered.
	MegaMIMOP95Ms, BaselineP95Ms float64
}

// WorkloadResult is the full offered-load vs delivered-throughput curve —
// the user-demand view of the paper's thesis: as demand grows past what
// one AP can carry, MegaMIMO keeps delivering while 802.11 saturates.
type WorkloadResult struct {
	NAPs    int
	Kind    traffic.Kind
	Seconds float64
	Points  []WorkloadPoint
}

// workloadCell is one (load, topology) run of both systems.
type workloadCell struct {
	mm, bl *traffic.Report
}

// RunWorkload sweeps per-client offered load and reports delivered
// throughput for MegaMIMO vs the 802.11 equal-share baseline, medians
// across random topologies. Cells run on the parallel engine; each cell's
// seeds depend only on its (load, topology) coordinates, so the result is
// byte-identical at any worker count.
func RunWorkload(loadsMbps []float64, nAPs, topologies int, kind traffic.Kind, seconds float64, seed int64) (*WorkloadResult, error) {
	cells, err := MapNamed("workload", len(loadsMbps)*topologies, func(i int) (workloadCell, error) {
		loadIdx := i / topologies
		topo := i % topologies
		topoSeed := seed + int64(topo)*7919
		engSeed := seed + int64(loadIdx)*104729 + int64(topo)*7919
		profile := traffic.ProfileFor(kind, loadsMbps[loadIdx]*1e6, PayloadBytes)
		mm, bl, _, err := closedLoop(nAPs, profile, seconds, topoSeed, engSeed, nil)
		return workloadCell{mm: mm, bl: bl}, err
	})
	if err != nil {
		return nil, err
	}
	return aggregateWorkload(cells, loadsMbps, topologies, nAPs, kind, seconds), nil
}

// aggregateWorkload folds per-cell reports into the demand-sweep curve.
func aggregateWorkload(cells []workloadCell, loadsMbps []float64, topologies, nAPs int, kind traffic.Kind, seconds float64) *WorkloadResult {
	res := &WorkloadResult{NAPs: nAPs, Kind: kind, Seconds: seconds}
	for li, load := range loadsMbps {
		var mmT, blT, mmF, blF, mmL, blL []float64
		for topo := 0; topo < topologies; topo++ {
			c := cells[li*topologies+topo]
			mmT = append(mmT, c.mm.AggregateDeliveredBps/1e6)
			blT = append(blT, c.bl.AggregateDeliveredBps/1e6)
			mmF = append(mmF, c.mm.Fairness)
			blF = append(blF, c.bl.Fairness)
			mmL = append(mmL, maxP95(c.mm))
			blL = append(blL, maxP95(c.bl))
		}
		res.Points = append(res.Points, WorkloadPoint{
			OfferedMbpsPerClient: load,
			MegaMIMOMbps:         stats.Median(mmT),
			BaselineMbps:         stats.Median(blT),
			MegaMIMOFairness:     stats.Median(mmF),
			BaselineFairness:     stats.Median(blF),
			MegaMIMOP95Ms:        stats.Median(mmL),
			BaselineP95Ms:        stats.Median(blL),
		})
	}
	return res
}

// maxP95 returns the worst per-client p95 latency of a run (0 when no
// client delivered anything).
func maxP95(r *traffic.Report) float64 {
	var worst float64
	for _, c := range r.Clients {
		// NaN (nothing delivered) never compares greater, so it is
		// skipped naturally.
		if c.P95LatencyMs > worst {
			worst = c.P95LatencyMs
		}
	}
	return worst
}

// String renders the saturation table.
func (r *WorkloadResult) String() string {
	out := fmt.Sprintf("Demand sweep — %d APs, %s arrivals, %.3fs windows\n", r.NAPs, r.Kind, r.Seconds)
	header := []string{
		"offered/client (Mb/s)", "802.11 (Mb/s)", "MegaMIMO (Mb/s)", "gain",
		"fair 802.11", "fair MM", "p95 802.11 (ms)", "p95 MM (ms)",
	}
	var rows [][]string
	for _, p := range r.Points {
		gain := "-"
		if p.BaselineMbps > 0 {
			gain = fmt.Sprintf("%.1f x", p.MegaMIMOMbps/p.BaselineMbps)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.OfferedMbpsPerClient),
			fmt.Sprintf("%.2f", p.BaselineMbps),
			fmt.Sprintf("%.2f", p.MegaMIMOMbps),
			gain,
			fmt.Sprintf("%.3f", p.BaselineFairness),
			fmt.Sprintf("%.3f", p.MegaMIMOFairness),
			fmt.Sprintf("%.2f", p.BaselineP95Ms),
			fmt.Sprintf("%.2f", p.MegaMIMOP95Ms),
		})
	}
	return out + Table(header, rows)
}
