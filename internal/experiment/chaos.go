package experiment

import (
	"fmt"

	"megamimo/internal/core"
	"megamimo/internal/fault"
	"megamimo/internal/stats"
	"megamimo/internal/traffic"
)

// ChaosPoint is one fault-intensity step of the chaos sweep: delivery under
// a seeded fault schedule of that intensity for MegaMIMO vs the 802.11
// baseline, medians across topologies, plus the fault-path counters summed
// over the MegaMIMO cells.
type ChaosPoint struct {
	// IntensityPerSec is the expected injected faults per simulated second.
	IntensityPerSec float64
	// Delivered aggregate throughput (Mb/s), median across topologies.
	MegaMIMOMbps, BaselineMbps float64
	// DeliveredRate is delivered packets / offered packets (median).
	MegaMIMODeliveredRate, BaselineDeliveredRate float64
	// Jain fairness over per-client delivered throughput (median).
	MegaMIMOFairness, BaselineFairness float64
	// Fault-path counters from the MegaMIMO runs, summed across topologies.
	FaultsInjected, LeadFailovers, SyncAbstains, DegradedRounds, BackendDropped int64
}

// ChaosResult is the full fault-intensity sweep: how gracefully each system
// degrades as the same seeded fault schedule intensifies.
type ChaosResult struct {
	NAPs       int
	Topologies int
	Seconds    float64
	Seed       int64
	Points     []ChaosPoint
}

// chaosCounters names the fault-path counters a chaos cell reports, in the
// order chaosCell.counters stores them.
var chaosCounters = []string{
	"fault_injected_total",
	"lead_failovers_total",
	"sync_abstain_total",
	"degraded_rounds_total",
	"backend_dropped_total",
}

// chaosCell is one (intensity, topology) run of both systems under the same
// fault plan.
type chaosCell struct {
	mm, bl   *traffic.Report
	counters [5]int64
}

// chaosLoadMbpsPerClient is the per-client CBR demand of every chaos
// cell. At 4 APs it offers 24 Mb/s against about 92 Mb/s of high-bin
// MegaMIMO capacity (Fig. 9), so MegaMIMO's column reports the offered
// load less what the faults drop, not its capacity. The 802.11 baseline
// saturates at this load and delivers about 0.8 of it. This load cannot
// see a sync error: a π/18 rotation planted on slave AP 1's per-packet
// correction moves the full-size sweep's 0 faults/s MegaMIMO column from
// 24.6 to 24.9 Mb/s, while at 40 Mb/s per client (backlogged) it moves
// it from 51.6 to 34.8 Mb/s, and at 600 faults/s from 40.8 to 30.9 Mb/s
// (see ROADMAP).
const chaosLoadMbpsPerClient = 6.0

// RunChaos sweeps fault intensity and reports how each system degrades.
// Cells run on the parallel engine; every seed is a pure function of the
// cell's (intensity, topology) coordinates, and every in-cell random fault
// decision is a hash of the plan seed and a message identity, so the sweep
// is byte-identical at any worker count.
func RunChaos(intensities []float64, nAPs, topologies int, seconds float64, seed int64) (*ChaosResult, error) {
	cells, err := MapNamed("chaos", len(intensities)*topologies, func(i int) (chaosCell, error) {
		ii := i / topologies
		topo := i % topologies
		topoSeed := seed + int64(topo)*7919
		engSeed := seed + int64(ii)*104729 + int64(topo)*7919
		planSeed := seed + int64(ii)*15485863 + int64(topo)*7919 + 13
		// Both systems replay the same seeded fault schedule.
		plan := func(n *core.Network) *fault.Plan { return fault.Storm(n, planSeed, seconds, intensities[ii]) }
		profile := traffic.NewCBR(chaosLoadMbpsPerClient*1e6, PayloadBytes)
		mm, bl, n, err := closedLoop(nAPs, profile, seconds, topoSeed, engSeed, plan)
		if err != nil {
			return chaosCell{}, err
		}
		cell := chaosCell{mm: mm, bl: bl}
		for k, name := range chaosCounters {
			cell.counters[k] = n.Metrics().Counter(name).Value()
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{NAPs: nAPs, Topologies: topologies, Seconds: seconds, Seed: seed}
	for ii, intensity := range intensities {
		var mmT, blT, mmR, blR, mmF, blF []float64
		p := ChaosPoint{IntensityPerSec: intensity}
		for topo := 0; topo < topologies; topo++ {
			c := cells[ii*topologies+topo]
			mmT = append(mmT, c.mm.AggregateDeliveredBps/1e6)
			blT = append(blT, c.bl.AggregateDeliveredBps/1e6)
			mmR = append(mmR, deliveredRate(c.mm))
			blR = append(blR, deliveredRate(c.bl))
			mmF = append(mmF, c.mm.Fairness)
			blF = append(blF, c.bl.Fairness)
			p.FaultsInjected += c.counters[0]
			p.LeadFailovers += c.counters[1]
			p.SyncAbstains += c.counters[2]
			p.DegradedRounds += c.counters[3]
			p.BackendDropped += c.counters[4]
		}
		p.MegaMIMOMbps = stats.Median(mmT)
		p.BaselineMbps = stats.Median(blT)
		p.MegaMIMODeliveredRate = stats.Median(mmR)
		p.BaselineDeliveredRate = stats.Median(blR)
		p.MegaMIMOFairness = stats.Median(mmF)
		p.BaselineFairness = stats.Median(blF)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// deliveredRate is delivered packets over offered packets (1 when nothing
// was offered).
func deliveredRate(r *traffic.Report) float64 {
	var off, del int
	for _, c := range r.Clients {
		off += c.OfferedPackets
		del += c.DeliveredPackets
	}
	if off == 0 {
		return 1
	}
	return float64(del) / float64(off)
}

// String renders the degradation table.
func (r *ChaosResult) String() string {
	out := fmt.Sprintf("Chaos sweep — %d APs, %d topologies, %.3fs windows, seed %d\n",
		r.NAPs, r.Topologies, r.Seconds, r.Seed)
	header := []string{
		"faults/s", "802.11 (Mb/s)", "MegaMIMO (Mb/s)", "del 802.11", "del MM",
		"fair MM", "failovers", "abstains", "degraded", "bus drops",
	}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.IntensityPerSec),
			fmt.Sprintf("%.2f", p.BaselineMbps),
			fmt.Sprintf("%.2f", p.MegaMIMOMbps),
			fmt.Sprintf("%.3f", p.BaselineDeliveredRate),
			fmt.Sprintf("%.3f", p.MegaMIMODeliveredRate),
			fmt.Sprintf("%.3f", p.MegaMIMOFairness),
			fmt.Sprintf("%d", p.LeadFailovers),
			fmt.Sprintf("%d", p.SyncAbstains),
			fmt.Sprintf("%d", p.DegradedRounds),
			fmt.Sprintf("%d", p.BackendDropped),
		})
	}
	return out + Table(header, rows)
}
