package experiment

import (
	"fmt"

	"megamimo/internal/baseline"
	"megamimo/internal/core"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// Fig12Point is one SNR bin's 802.11n-testbed comparison.
type Fig12Point struct {
	Bin         string
	Dot11nBps   float64
	MegaMIMOBps float64
	MeanGain    float64
}

// Fig12Result reproduces "Throughput achieved using MegaMIMO on
// off-the-shelf 802.11n cards" (§11.5): two 2-antenna APs jointly serve
// two 2-antenna clients (4 concurrent streams) against an 802.11n TDMA
// baseline, using the §6 reference-antenna channel-measurement trick.
type Fig12Result struct {
	Points []Fig12Point
	// Gains pools every run's total-throughput gain for Fig 13's CDF.
	Gains []float64
}

// fig12Cell is one measured placement; skipped marks a singular draw that
// contributes nothing to the bin's averages.
type fig12Cell struct {
	mm, bl  float64
	skipped bool
}

// RunFig12 runs `topologies` random placements per bin on the 20 MHz
// 802.11n configuration. Each placement is one engine cell seeded from its
// (bin, topology) coordinates.
func RunFig12(topologies, txRounds int, seed int64) (*Fig12Result, error) {
	cells, err := MapNamed("fig12-diversity", len(AllBins)*topologies, func(i int) (fig12Cell, error) {
		binIdx := i / topologies
		topo := i % topologies
		bin := AllBins[binIdx]
		n, err := network(haar, 2, 2, bin.Lo, bin.Hi, seed+int64(topo)*577+int64(binIdx)*3, func(c *core.Config) {
			c.AntennasPerAP = 2
			c.AntennasPerClient = 2
			c.SampleRate = Dot11nSampleRate
			// The Intel 5300 reports CSI in a signed fixed-point format.
			c.CSIQuantBits = 7
		})
		if err != nil {
			return fig12Cell{}, err
		}
		// §6: off-the-shelf clients are measured with the
		// reference-antenna trick, not the interleaved packet.
		if err := n.MeasureDot11n(); err != nil {
			return fig12Cell{}, err
		}
		if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
			return fig12Cell{skipped: true}, nil
		}

		// Baseline: each 2-antenna client served in turn by its
		// strongest AP with single-AP 2-stream beamforming.
		sap := &baseline.SingleAPMIMO{Net: n}
		bl, _, err := sap.Throughput(PayloadBytes)
		if err != nil {
			return fig12Cell{}, err
		}

		mcs, ok, err := n.ProbeAndSelectRate(256)
		if err != nil {
			return fig12Cell{}, err
		}
		var mm float64
		if ok {
			airtime, bits, err := jointRounds(n, mcs, txRounds)
			if err != nil {
				return fig12Cell{}, err
			}
			if airtime > 0 {
				mm = stats.Sum(bits) / units.Duration(units.Ticks(airtime), n.Cfg.SampleRate)
			}
		}
		return fig12Cell{mm: mm, bl: bl}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for b, bin := range AllBins {
		var mms, bls, gains []float64
		for topo := 0; topo < topologies; topo++ {
			c := cells[b*topologies+topo]
			if c.skipped {
				continue
			}
			mms = append(mms, c.mm)
			bls = append(bls, c.bl)
			if c.bl > 0 {
				gains = append(gains, c.mm/c.bl)
			}
		}
		if len(mms) == 0 {
			continue
		}
		pt := Fig12Point{
			Bin:         bin.Name,
			Dot11nBps:   stats.Mean(bls),
			MegaMIMOBps: stats.Mean(mms),
		}
		if len(gains) > 0 {
			pt.MeanGain = stats.Mean(gains)
			res.Gains = append(res.Gains, gains...)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String prints the grouped-bar data of Fig 12.
func (r *Fig12Result) String() string {
	header := []string{"SNR bin", "802.11n (Mb/s)", "MegaMIMO (Mb/s)", "mean gain"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Bin,
			fmt.Sprintf("%.1f", p.Dot11nBps/1e6),
			fmt.Sprintf("%.1f", p.MegaMIMOBps/1e6),
			fmt.Sprintf("%.2f x", p.MeanGain),
		})
	}
	return "Fig 12 — 802.11n testbed throughput (2x 2-antenna APs → 2x 2-antenna clients)\n" +
		Table(header, rows)
}

// Fig13Result is the CDF of the 802.11n throughput gain (§11.5's fairness
// check: 1.65–2× across all runs, median 1.8×).
type Fig13Result struct {
	Gains []float64
}

// Fig13From reuses the Fig 12 runs.
func Fig13From(r *Fig12Result) *Fig13Result { return &Fig13Result{Gains: r.Gains} }

// String prints the gain CDF summary.
func (r *Fig13Result) String() string {
	if len(r.Gains) == 0 {
		return "Fig 13 — no data"
	}
	c := stats.NewCDF(r.Gains)
	header := []string{"throughput gain", "fraction of runs"}
	var rows [][]string
	for _, pt := range c.Points(9) {
		rows = append(rows, []string{fmt.Sprintf("%.2f x", pt[0]), fmt.Sprintf("%.2f", pt[1])})
	}
	return fmt.Sprintf("Fig 13 — CDF of 802.11n throughput gain\nmedian %.2fx (paper: 1.8x), range %.2f-%.2fx (paper: 1.65-2x)\n%s",
		stats.Median(r.Gains), c.Quantile(0), c.Quantile(1), Table(header, rows))
}
