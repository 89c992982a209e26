package experiment

import (
	"encoding/json"
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

// JSON renders the result deterministically for the determinism gate.
func (r *ChaosResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
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

// chaosLoadMbpsPerClient keeps every stream backlogged enough that a fault
// window always costs visible delivery, without saturating the fault-free
// baseline.
const chaosLoadMbpsPerClient = 6.0

// runChaosCell builds two identically seeded networks over one topology,
// materializes the fault schedule once, and replays it against each system.
// A non-nil sink receives the MegaMIMO network's flight-recorder events.
func runChaosCell(nAPs int, intensity, seconds float64, topoSeed, engSeed, planSeed int64, sink core.TraceSink) (chaosCell, error) {
	var cell chaosCell
	run := func(sys traffic.System) (*traffic.Report, *core.Network, error) {
		cfg := core.DefaultConfig(nAPs, nAPs, HighSNR.Lo, HighSNR.Hi)
		cfg.Seed = topoSeed
		cfg.WellConditioned = true
		n, err := core.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		if sys == traffic.SystemMegaMIMO {
			attachTrace(n, sink)
		}
		if _, err := n.MeasureAndPrecode(); err != nil {
			return nil, nil, err
		}
		plan := fault.Storm(n, planSeed, seconds, intensity)
		profiles := make([]traffic.Profile, n.NumStreams())
		for i := range profiles {
			profiles[i] = traffic.NewCBR(chaosLoadMbpsPerClient*1e6, PayloadBytes)
		}
		eng, err := traffic.New(n, traffic.Config{
			System:   sys,
			Profiles: profiles,
			Seed:     engSeed,
			Faults:   plan,
		})
		if err != nil {
			return nil, nil, err
		}
		rep, err := eng.Run(seconds)
		if err != nil {
			return nil, nil, err
		}
		return rep, n, nil
	}
	mm, n, err := run(traffic.SystemMegaMIMO)
	if err != nil {
		return cell, err
	}
	cell.mm = mm
	for i, name := range chaosCounters {
		cell.counters[i] = n.Metrics().Counter(name).Value()
	}
	if cell.bl, _, err = run(traffic.SystemTDMA); err != nil {
		return cell, err
	}
	return cell, nil
}

// RunChaos sweeps fault intensity and reports how each system degrades.
// Cells run on the parallel engine; every seed is a pure function of the
// cell's (intensity, topology) coordinates, and every in-cell random fault
// decision is a hash of the plan seed and a message identity, so the sweep
// is byte-identical at any worker count. A non-nil trace receives the
// merged flight-recorder stream, as in RunWorkload.
func RunChaos(intensities []float64, nAPs, topologies int, seconds float64, seed int64, trace core.TraceSink) (*ChaosResult, error) {
	merge := mergeCells(trace, len(intensities)*topologies)
	cells, err := MapNamed("chaos", len(intensities)*topologies, func(i int) (chaosCell, error) {
		defer merge.CloseCell(i)
		ii := i / topologies
		topo := i % topologies
		topoSeed := seed + int64(topo)*7919
		engSeed := seed + int64(ii)*104729 + int64(topo)*7919
		planSeed := seed + int64(ii)*15485863 + int64(topo)*7919 + 13
		return runChaosCell(nAPs, intensities[ii], seconds, topoSeed, engSeed, planSeed, merge.Cell(i))
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
