package experiment

import (
	"fmt"

	"megamimo/internal/core"
	"megamimo/internal/stats"
)

// Fig7Result reproduces "CDF of observed phase misalignment" (§11.1b):
// lead and slave alternate symbols at a receiver with full distributed
// phase synchronization running; the deviation of their relative phase
// from the first round is the misalignment.
type Fig7Result struct {
	DeviationsRad []float64
	MedianRad     float64
	P95Rad        float64
}

// RunFig7 gathers rounds of alternating-symbol measurements across several
// lead/slave placements; each placement is one engine cell with its own
// seeded network.
func RunFig7(placements, roundsPerPlacement int, seed int64) (*Fig7Result, error) {
	cells, err := MapNamed("fig7-coherence", placements, func(p int) ([]float64, error) {
		n, err := network(rayleigh, 2, 1, 24, 30, seed+int64(p)*97, func(c *core.Config) {
			// Real oscillators wander: a modest Wiener phase-noise process
			// (the USRP2's TCXO class) drifts a few hundredths of a radian
			// over the header→symbols turnaround, which is what puts the
			// paper's floor at 0.017 rad rather than the thermal-noise-only
			// value.
			c.WanderStd = 2e-4
		})
		if err != nil {
			return nil, err
		}
		if err := n.Measure(); err != nil {
			return nil, err
		}
		return n.MeasureMisalignment(roundsPerPlacement, 20000)
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	for _, devs := range cells {
		res.DeviationsRad = append(res.DeviationsRad, devs...)
	}
	if len(res.DeviationsRad) > 0 {
		res.MedianRad = stats.Median(res.DeviationsRad)
		res.P95Rad = stats.Percentile(res.DeviationsRad, 95)
	}
	return res, nil
}

// String prints the CDF summary plus sampled points.
func (r *Fig7Result) String() string {
	c := stats.NewCDF(r.DeviationsRad)
	header := []string{"misalignment (rad)", "fraction of runs"}
	var rows [][]string
	for _, pt := range c.Points(11) {
		rows = append(rows, []string{fmt.Sprintf("%.4f", pt[0]), fmt.Sprintf("%.2f", pt[1])})
	}
	return fmt.Sprintf("Fig 7 — CDF of observed phase misalignment\n"+
		"median %.4f rad (paper: 0.017), p95 %.4f rad (paper: 0.05), n=%d\n%s",
		r.MedianRad, r.P95Rad, len(r.DeviationsRad), Table(header, rows))
}
