package experiment

import (
	"fmt"

	"megamimo/internal/cmplxs"
	"megamimo/internal/core"
	"megamimo/internal/phy"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// RobustnessPoint is one oscillator-quality cell.
type RobustnessPoint struct {
	PPMBudget      units.PPM
	MisalignMedian float64
	INRdB          float64
	DeliveryRate   float64
}

// RobustnessResult sweeps the crystal-error budget from laboratory-grade
// to the full 802.11 mandate (±20 ppm, §1: "several orders of magnitude
// smaller than the mandated 802.11 tolerance") and reports how the
// distributed phase sync holds up.
type RobustnessResult struct {
	Points []RobustnessPoint
}

// robustnessCell is one (ppm budget, draw) measurement; hasINR/hasOK mark
// which aggregates this draw contributes to (a singular precoder draw
// contributes only misalignment).
type robustnessCell struct {
	mis    []float64
	inr    float64
	hasINR bool
	okRate float64
	hasOK  bool
}

// RunRobustness measures misalignment, nulling INR and joint delivery at
// each ppm budget. One engine cell covers one (budget, draw) pair; the
// seed intentionally repeats across budgets so the sweep is a paired
// comparison over the same channel draws.
func RunRobustness(budgets []units.PPM, draws int, seed int64) (*RobustnessResult, error) {
	cells, err := MapNamed("robustness", len(budgets)*draws, func(i int) (robustnessCell, error) {
		ppm := budgets[i/draws]
		d := i % draws
		var out robustnessCell
		// Misalignment (Fig. 7 machinery, 2 APs, 1 client).
		budget := func(c *core.Config) { c.PPMBudget = ppm }
		mn, err := network(rayleigh, 2, 1, 24, 30, seed+int64(d)*353, budget)
		if err != nil {
			return out, err
		}
		if err := mn.Measure(); err != nil {
			return out, err
		}
		devs, err := mn.MeasureMisalignment(12, 20000)
		if err != nil {
			return out, err
		}
		out.mis = devs

		// INR + delivery (3×3 joint).
		n, err := network(haar, 3, 3, 18, 24, seed+int64(d)*353+7, budget)
		if err != nil {
			return out, err
		}
		if err := n.Measure(); err != nil {
			return out, err
		}
		if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
			return out, nil // singular draw
		}
		inr, err := n.NullingINR(0, 700, phy.MCS0)
		if err != nil {
			return out, err
		}
		out.inr, out.hasINR = units.Ratio(cmplxs.DB(inr), 1), true
		mcs, ok, err := n.ProbeAndSelectRate(256)
		if err != nil {
			return out, err
		}
		if !ok {
			out.hasOK = true
			return out, nil
		}
		_, bits, err := jointRounds(n, mcs, 1)
		if err != nil {
			return out, err
		}
		out.okRate, out.hasOK = stats.Sum(bits)/(8*PayloadBytes)/3, true
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{}
	for b, ppm := range budgets {
		var mis, inrs, okRates []float64
		for d := 0; d < draws; d++ {
			c := cells[b*draws+d]
			mis = append(mis, c.mis...)
			if c.hasINR {
				inrs = append(inrs, c.inr)
			}
			if c.hasOK {
				okRates = append(okRates, c.okRate)
			}
		}
		pt := RobustnessPoint{PPMBudget: ppm}
		if len(mis) > 0 {
			pt.MisalignMedian = stats.Median(mis)
		}
		pt.INRdB = stats.Mean(inrs)
		pt.DeliveryRate = stats.Mean(okRates)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the sweep.
func (r *RobustnessResult) String() string {
	header := []string{"ppm budget", "misalign median (rad)", "INR (dB)", "delivery"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("±%.1f", p.PPMBudget),
			fmt.Sprintf("%.4f", p.MisalignMedian),
			fmt.Sprintf("%.1f", p.INRdB),
			fmt.Sprintf("%.0f%%", 100*p.DeliveryRate),
		})
	}
	return "Robustness — distributed phase sync vs oscillator quality\n" + Table(header, rows)
}
