package experiment

import (
	"fmt"

	"megamimo/internal/phy"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// AmortizationPoint is one re-measurement cadence.
type AmortizationPoint struct {
	// PacketsPerMeasure is how many joint transmissions share one channel
	// measurement phase.
	PacketsPerMeasure int
	// OverheadFraction is measurement airtime / total airtime.
	OverheadFraction float64
	// ThroughputBps is delivered goodput over total airtime (measurement
	// included).
	ThroughputBps float64
}

// AmortizationResult quantifies §5's overhead claim: "a single channel
// measurement phase can be followed by multiple data transmissions",
// amortizing its cost over the channel coherence time (hundreds of
// milliseconds indoors ≈ hundreds of packets).
type AmortizationResult struct {
	Points []AmortizationPoint
}

// amortCell is one (period, draw) run; ok is false when no packet went out
// (the draw contributes nothing to the averages).
type amortCell struct {
	overhead, tput float64
	ok             bool
}

// RunAmortization measures total throughput when re-measuring every
// `period` packets, for each period, on a static channel. One engine cell
// runs one (period, draw) pair; the seed repeats across periods so every
// cadence is timed on the same channel draws.
func RunAmortization(periods []int, draws int, seed int64) (*AmortizationResult, error) {
	cells, err := MapNamed("amortization", len(periods)*draws, func(i int) (amortCell, error) {
		period := periods[i/draws]
		d := i % draws
		n, err := network(haar, 4, 4, 18, 24, seed+int64(d)*617, nil)
		if err != nil {
			return amortCell{}, err
		}
		var dataAir, msmtAir int64
		var bits float64
		const totalPackets = 16
		sent := 0
		var mcs int = -1
		for sent < totalPackets {
			before := n.Now()
			if err := n.Measure(); err != nil {
				return amortCell{}, err
			}
			// The cached precode path pays full inversions only on the
			// first pass; later re-measurements of this static channel are
			// rank-1 Sherman–Morrison updates.
			if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
				return amortCell{}, err
			}
			msmtAir += n.Now() - before
			if mcs < 0 {
				m, ok, err := n.ProbeAndSelectRate(256)
				if err != nil {
					return amortCell{}, err
				}
				if !ok {
					break
				}
				mcs = int(m)
			}
			rounds := min(period, totalPackets-sent)
			air, delivered, err := jointRounds(n, phy.MCS(mcs), rounds)
			if err != nil {
				return amortCell{}, err
			}
			dataAir += air
			bits += stats.Sum(delivered)
			sent += rounds
		}
		total := dataAir + msmtAir
		if total == 0 {
			return amortCell{}, nil
		}
		return amortCell{
			overhead: float64(msmtAir) / float64(total),
			tput:     bits / units.Duration(units.Ticks(total), n.Cfg.SampleRate),
			ok:       true,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AmortizationResult{}
	for p, period := range periods {
		var tputs, overheads []float64
		for d := 0; d < draws; d++ {
			c := cells[p*draws+d]
			if !c.ok {
				continue
			}
			overheads = append(overheads, c.overhead)
			tputs = append(tputs, c.tput)
		}
		res.Points = append(res.Points, AmortizationPoint{
			PacketsPerMeasure: period,
			OverheadFraction:  stats.Mean(overheads),
			ThroughputBps:     stats.Mean(tputs),
		})
	}
	return res, nil
}

// String renders the amortization table.
func (r *AmortizationResult) String() string {
	header := []string{"packets per measurement", "measurement overhead", "throughput (Mb/s)"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.PacketsPerMeasure),
			fmt.Sprintf("%.1f%%", 100*p.OverheadFraction),
			fmt.Sprintf("%.1f", p.ThroughputBps/1e6),
		})
	}
	return "Amortization — measurement overhead vs re-measurement cadence (§5)\n" + Table(header, rows)
}
