package experiment

import (
	"fmt"
	"math"

	"megamimo/internal/cmplxs"
	"megamimo/internal/core"
	"megamimo/internal/phy"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// AblationResult compares design variants on the nulling INR after a
// configurable staleness interval.
type AblationResult struct {
	Rows [][2]string // label, value
}

// RunAblations exercises the design decisions DESIGN.md calls out:
//
//  1. direct per-packet phase measurement vs frequency-offset
//     extrapolation (the paper's core claim), at two staleness horizons;
//  2. interleaved-measurement averaging depth (2 vs 8 rounds);
//  3. pure zero-forcing vs MMSE regularization on iid Rayleigh channels.
func RunAblations(draws int, seed int64) (*AblationResult, error) {
	res := &AblationResult{}

	// meanOver averages f over the draws, one engine cell per draw; a NaN
	// marks a singular draw to skip.
	meanOver := func(name string, f func(d int) (float64, error)) (float64, error) {
		cells, err := MapNamed(name, draws, f)
		if err != nil {
			return 0, err
		}
		var vals []float64
		for _, v := range cells {
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		return stats.Mean(vals), nil
	}

	inrRun := func(mod func(*core.Config), wait int64) (float64, error) {
		return meanOver("ablation-inr", func(d int) (float64, error) {
			n, err := network(haar, 3, 3, 18, 24, seed+int64(d)*211, mod)
			if err != nil {
				return 0, err
			}
			if err := n.Measure(); err != nil {
				return 0, err
			}
			if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
				return math.NaN(), nil
			}
			if wait > 0 {
				n.AdvanceTime(wait)
			}
			inr, err := n.NullingINR(0, 700, phy.MCS0)
			if err != nil {
				return 0, err
			}
			return units.Ratio(cmplxs.DB(inr), 1), nil
		})
	}

	type cell struct {
		label string
		mod   func(*core.Config)
		wait  int64
	}
	cells := []cell{
		{"measure, 5 ms stale", nil, 50000},
		{"extrapolate, 5 ms stale", func(c *core.Config) { c.ExtrapolatePhase = true }, 50000},
		{"measure, 50 ms stale", nil, 500000},
		{"extrapolate, 50 ms stale", func(c *core.Config) { c.ExtrapolatePhase = true }, 500000},
		{"2 measurement rounds", func(c *core.Config) { c.MeasurementRounds = 2 }, 0},
		{"8 measurement rounds", func(c *core.Config) { c.MeasurementRounds = 8 }, 0},
	}
	for _, c := range cells {
		v, err := inrRun(c.mod, c.wait)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, [2]string{"INR: " + c.label, fmt.Sprintf("%.1f dB", v)})
	}

	// ZF vs MMSE on iid Rayleigh: adapted-rate joint throughput.
	tput := func(lambdaTimesNv float64) (float64, error) {
		return meanOver("ablation-precoder", func(d int) (float64, error) {
			n, err := network(rayleigh, 5, 5, 18, 24, seed+int64(d)*431, nil)
			if err != nil {
				return 0, err
			}
			if err := n.Measure(); err != nil {
				return 0, err
			}
			if _, err := n.Precode(lambdaTimesNv * n.Cfg.NoiseVar); err != nil {
				return math.NaN(), nil
			}
			mcs, ok, err := n.ProbeAndSelectRate(256)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, nil
			}
			airtime, bits, err := jointRounds(n, mcs, 1)
			if err != nil {
				return 0, err
			}
			return stats.Sum(bits) / units.Duration(units.Ticks(airtime), n.Cfg.SampleRate) / 1e6, nil
		})
	}
	for _, lam := range []float64{0, 4} {
		v, err := tput(lam)
		if err != nil {
			return nil, err
		}
		label := "pure ZF"
		if lam > 0 {
			label = fmt.Sprintf("MMSE λ=%.0f·nv", lam)
		}
		res.Rows = append(res.Rows, [2]string{"iid-Rayleigh 5x5 throughput, " + label, fmt.Sprintf("%.1f Mb/s", v)})
	}
	return res, nil
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	header := []string{"ablation", "result"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row[0], row[1]})
	}
	return "Ablations — design-choice comparisons\n" + Table(header, rows)
}
