package experiment

import (
	"fmt"
	"math"

	"megamimo/internal/core"
	"megamimo/internal/fault"
	"megamimo/internal/stats"
	psync "megamimo/internal/sync"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// This file runs the synchronization-strategy head-to-head (ROADMAP item
// 3): the same drift, chaos and offered-load machinery applied to every
// registered sync.Strategy, a comparison the original papers never did on
// equal footing — JMB's sync header measures per packet, AirSync predicts
// with a Kalman filter, BeamSync calibrates periodically and extrapolates
// between bursts.

// SyncCondition is one column of the head-to-head: an injected oscillator
// drift (lead −ppm, slaves +ppm → 2×ppm relative) or the mixed chaos
// scenario at the drift-free oscillator draws.
type SyncCondition struct {
	// DriftPPM pulls the lead and slave oscillators apart by ±DriftPPM
	// (2×DriftPPM relative). Ignored when Chaos is set.
	DriftPPM float64
	// Chaos replays the seeded mixed fault scenario instead of a drift.
	Chaos bool
}

// Name renders the condition for the comparison table.
func (c SyncCondition) Name() string {
	if c.Chaos {
		return "chaos mixed"
	}
	return fmt.Sprintf("%.0f ppm", c.DriftPPM)
}

// DefaultSyncConditions is the acceptance grid: the 0/10/20 ppm drift
// points plus the mixed chaos scenario.
func DefaultSyncConditions() []SyncCondition {
	return []SyncCondition{
		{DriftPPM: 0},
		{DriftPPM: 10},
		{DriftPPM: 20},
		{Chaos: true},
	}
}

// SyncSweepRow is one (strategy, condition) cell of the comparison:
// phase-error statistics pooled over every slave measurement, delivered
// throughput, and the degradation counters, medians/sums across
// topologies.
type SyncSweepRow struct {
	Strategy  string
	Condition string
	// MedianPhaseErrRad / P95PhaseErrRad summarize |residual phase error|
	// over every slave-ratio event (the π/18 budget bounds the median).
	MedianPhaseErrRad, P95PhaseErrRad float64
	// MegaMIMOMbps is the delivered aggregate throughput (median across
	// topologies).
	MegaMIMOMbps float64
	// DegradedRounds / SyncAbstains are summed across topologies.
	DegradedRounds, SyncAbstains int64
}

// SyncSweepResult is the full strategy × condition grid.
type SyncSweepResult struct {
	NAPs       int
	Topologies int
	Seconds    float64
	Seed       int64
	Conditions []string
	Rows       []SyncSweepRow
}

// syncCell is one (strategy, condition, topology) closed-loop run.
type syncCell struct {
	report    *traffic.Report
	phaseErrs []float64
	degraded  int64
	abstains  int64
}

// syncSweepLoad is the chaos sweep's per-client demand. It sits far below
// MegaMIMO's capacity (24 Mb/s offered at 4 APs against about 92 Mb/s),
// so the throughput column reports the offered load: a strategy shows up
// there only when it loses packets outright, and phase error that still
// decodes costs nothing visible (ROADMAP item 4).
const syncSweepLoad = chaosLoadMbpsPerClient

// runSyncCell builds one network with the given strategy, injects the
// condition, and drives the closed loop for the window, collecting the
// phase-error telemetry from the flight recorder.
func runSyncCell(strategy psync.Strategy, cond SyncCondition, nAPs int, seconds float64, topoSeed, engSeed, planSeed int64) (syncCell, error) {
	var cell syncCell
	n, err := network(haar, nAPs, nAPs, HighSNR.Lo, HighSNR.Hi, topoSeed, func(c *core.Config) { c.Sync = strategy })
	if err != nil {
		return cell, err
	}
	if !cond.Chaos && cond.DriftPPM > 0 {
		n.SetAPDrift(units.PPM(cond.DriftPPM))
	}
	n.Trace().Enable(1 << 18)
	if _, err := n.MeasureAndPrecode(); err != nil {
		return cell, err
	}
	var plan *fault.Plan
	if cond.Chaos {
		plan = fault.Storm(n, planSeed, seconds, 400)
	}
	profiles := make([]traffic.Profile, n.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.NewCBR(syncSweepLoad*1e6, PayloadBytes)
	}
	eng, err := traffic.New(n, traffic.Config{
		System:   traffic.SystemMegaMIMO,
		Profiles: profiles,
		Seed:     engSeed,
		Faults:   plan,
	})
	if err != nil {
		return cell, err
	}
	rep, err := eng.Run(seconds)
	if err != nil {
		// A strategy bad enough that no MCS delivers is a head-to-head
		// result, not an infrastructure failure: score the cell as zero
		// throughput and keep the phase-error telemetry that explains why.
		rep = &traffic.Report{}
	}
	cell.report = rep
	for _, e := range n.Trace().Events() {
		if e.Kind != core.KindSlaveRatio {
			continue
		}
		cell.phaseErrs = append(cell.phaseErrs, math.Abs(units.Ratio(e.Attrs.PhaseErrRad, 1)))
	}
	cell.degraded = n.Metrics().Counter("degraded_rounds_total").Value()
	cell.abstains = n.Metrics().Counter("sync_abstain_total").Value()
	return cell, nil
}

// RunSyncSweep races the given strategies (nil = the registry's header,
// airsync and beamsync) across the condition grid:
// every (strategy, condition) pair runs the offered-load closed loop over
// the same seeded topologies, and the row reports pooled phase-error
// statistics, median throughput and summed degradation counters. Cells run
// on the parallel engine; every seed is a pure function of the cell's
// coordinates and rows aggregate in cell-index order, so the table is
// byte-identical at any worker count.
func RunSyncSweep(strategies []psync.Strategy, conds []SyncCondition, nAPs, topologies int, seconds float64, seed int64) (*SyncSweepResult, error) {
	if len(strategies) == 0 {
		strategies = []psync.Strategy{psync.Header(), psync.NewAirSync(), psync.NewBeamSync()}
	}
	if len(conds) == 0 {
		conds = DefaultSyncConditions()
	}
	nCells := len(strategies) * len(conds) * topologies
	cells, err := MapNamed("syncsweep", nCells, func(i int) (syncCell, error) {
		si := i / (len(conds) * topologies)
		ci := (i / topologies) % len(conds)
		topo := i % topologies
		topoSeed := seed + int64(topo)*7919
		engSeed := seed + int64(si)*104729 + int64(ci)*1299709 + int64(topo)*7919
		planSeed := seed + int64(ci)*15485863 + int64(topo)*7919 + 13
		return runSyncCell(strategies[si], conds[ci], nAPs, seconds, topoSeed, engSeed, planSeed)
	})
	if err != nil {
		return nil, err
	}
	res := &SyncSweepResult{NAPs: nAPs, Topologies: topologies, Seconds: seconds, Seed: seed}
	for _, c := range conds {
		res.Conditions = append(res.Conditions, c.Name())
	}
	for si, strat := range strategies {
		for ci, cond := range conds {
			row := SyncSweepRow{Strategy: strat.Name(), Condition: cond.Name()}
			var pooled []float64
			var tput []float64
			for topo := 0; topo < topologies; topo++ {
				c := cells[(si*len(conds)+ci)*topologies+topo]
				pooled = append(pooled, c.phaseErrs...)
				tput = append(tput, c.report.AggregateDeliveredBps/1e6)
				row.DegradedRounds += c.degraded
				row.SyncAbstains += c.abstains
			}
			row.MedianPhaseErrRad = stats.Median(pooled)
			row.P95PhaseErrRad = stats.Percentile(pooled, 95)
			row.MegaMIMOMbps = stats.Median(tput)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the head-to-head table, one row per (strategy,
// condition), with the π/18 budget marked for reference.
func (r *SyncSweepResult) String() string {
	out := fmt.Sprintf("Sync strategy head-to-head — %d APs, %d topologies, %.3fs windows, seed %d (π/18 = %.4f rad)\n",
		r.NAPs, r.Topologies, r.Seconds, r.Seed, math.Pi/18)
	header := []string{
		"strategy", "condition", "median |Δφ| (rad)", "p95 |Δφ| (rad)",
		"MegaMIMO (Mb/s)", "degraded", "abstains",
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy,
			row.Condition,
			fmt.Sprintf("%.4f", row.MedianPhaseErrRad),
			fmt.Sprintf("%.4f", row.P95PhaseErrRad),
			fmt.Sprintf("%.2f", row.MegaMIMOMbps),
			fmt.Sprintf("%d", row.DegradedRounds),
			fmt.Sprintf("%d", row.SyncAbstains),
		})
	}
	return out + Table(header, rows)
}
