package experiment

import (
	"fmt"
	"sort"

	"megamimo/internal/baseline"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// Fig9Point is one (bin, #APs) cell: total network throughput for both
// systems, median across topologies.
type Fig9Point struct {
	Bin           string
	APs           int
	MegaMIMObps   float64
	Dot11bps      float64
	MedianGain    float64
	PerClientGain []float64 // all per-client gains pooled across topologies (feeds Fig 10)
}

// Fig9Result holds the scaling curves; Fig10 reads the pooled per-client
// gains back out of it.
type Fig9Result struct {
	Points []Fig9Point
	// SampleRate used (10 MHz USRP testbed).
	SampleRate float64
}

// topologyRun measures one random topology end to end and returns total and
// per-stream throughputs for MegaMIMO and the 802.11 baseline.
func topologyRun(nAPs int, bin SNRBin, seed int64, txRounds int) (mm float64, mmPer []float64, bl float64, blPer []float64, err error) {
	n, err := network(haar, nAPs, nAPs, bin.Lo, bin.Hi, seed, nil)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	if err := n.Measure(); err != nil {
		return 0, nil, 0, nil, err
	}
	if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
		return 0, nil, 0, nil, err
	}

	// 802.11 baseline: equal medium share at each client's unicast rate.
	u := baseline.New(n)
	bl, blPer, err = u.EqualShareThroughput(PayloadBytes)
	if err != nil {
		return 0, nil, 0, nil, err
	}

	// MegaMIMO: adapt the rate with a probe, then measure delivered
	// goodput over real joint transmissions, charging the sync header,
	// turnaround and the measurement phase amortized over the ~250 ms
	// coherence time (§5).
	mcs, ok, err := n.ProbeAndSelectRate(256)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	if !ok {
		return 0, make([]float64, nAPs), bl, blPer, nil
	}
	airtime, mmPer, err := jointRounds(n, mcs, txRounds)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	// Measurement overhead amortized: one measurement packet per
	// coherence time, shared across all transmissions inside it.
	const coherenceSamples = 0.25 * USRPSampleRate
	msmtSamples := float64(nAPs*n.Cfg.MeasurementRounds*80 + 2*80*nAPs + 800)
	overhead := 1 + msmtSamples/coherenceSamples
	seconds := units.Duration(units.Ticks(airtime), n.Cfg.SampleRate) * overhead
	for j := range mmPer {
		mmPer[j] /= seconds
		mm += mmPer[j]
	}
	return mm, mmPer, bl, blPer, nil
}

// fig9Cell is one measured topology: totals and per-stream throughputs for
// both systems.
type fig9Cell struct {
	mm, bl       float64
	mmPer, blPer []float64
}

// RunFig9 sweeps #APs = #clients across the bins (§11.2), with the given
// number of random topologies per point and joint transmissions per
// topology. Each topology is one engine cell; the per-cell seed depends
// only on the (AP count, topology) coordinates.
func RunFig9(apCounts []int, topologies, txRounds int, seed int64) (*Fig9Result, error) {
	cells, err := MapNamed("fig9-scaling", len(AllBins)*len(apCounts)*topologies, func(i int) (fig9Cell, error) {
		bin := AllBins[i/(len(apCounts)*topologies)]
		nAPs := apCounts[(i/topologies)%len(apCounts)]
		topo := i % topologies
		s := seed + int64(topo)*1009 + int64(nAPs)*13
		mm, mmPer, bl, blPer, err := topologyRun(nAPs, bin, s, txRounds)
		if err != nil {
			return fig9Cell{}, err
		}
		return fig9Cell{mm: mm, bl: bl, mmPer: mmPer, blPer: blPer}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{SampleRate: USRPSampleRate}
	for b, bin := range AllBins {
		for a, nAPs := range apCounts {
			var mmTotals, blTotals, gains []float64
			base := (b*len(apCounts) + a) * topologies
			for topo := 0; topo < topologies; topo++ {
				c := cells[base+topo]
				mmTotals = append(mmTotals, c.mm)
				blTotals = append(blTotals, c.bl)
				for j := range c.mmPer {
					if j < len(c.blPer) && c.blPer[j] > 0 {
						gains = append(gains, c.mmPer[j]/c.blPer[j])
					}
				}
			}
			pt := Fig9Point{
				Bin:           bin.Name,
				APs:           nAPs,
				MegaMIMObps:   stats.Median(mmTotals),
				Dot11bps:      stats.Median(blTotals),
				PerClientGain: gains,
			}
			if len(gains) > 0 {
				pt.MedianGain = stats.Median(gains)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// String prints the throughput-scaling table per bin.
func (r *Fig9Result) String() string {
	out := "Fig 9 — Scaling of throughput with the number of APs\n"
	for _, bin := range AllBins {
		header := []string{"APs(=clients)", "802.11 (Mb/s)", "MegaMIMO (Mb/s)", "median gain"}
		var rows [][]string
		for _, p := range r.Points {
			if p.Bin != bin.Name {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.APs),
				fmt.Sprintf("%.1f", p.Dot11bps/1e6),
				fmt.Sprintf("%.1f", p.MegaMIMObps/1e6),
				fmt.Sprintf("%.1f x", p.MedianGain),
			})
		}
		out += bin.Name + "\n" + Table(header, rows) + "\n"
	}
	return out
}

// Fig10Result is the per-client throughput-gain CDF data (§11.3).
type Fig10Result struct {
	// GainsByAPCount[bin name][#APs] → pooled per-client gains.
	Gains map[string]map[int][]float64
}

// Fig10From derives the fairness CDFs from a Fig 9 run — the paper uses
// the same experiment for both figures.
func Fig10From(r *Fig9Result) *Fig10Result {
	out := &Fig10Result{Gains: map[string]map[int][]float64{}}
	for _, p := range r.Points {
		if out.Gains[p.Bin] == nil {
			out.Gains[p.Bin] = map[int][]float64{}
		}
		out.Gains[p.Bin][p.APs] = append(out.Gains[p.Bin][p.APs], p.PerClientGain...)
	}
	return out
}

// String prints quartiles of the per-client gain distribution for the
// AP counts the paper plots (2, 6, 10 when present).
func (r *Fig10Result) String() string {
	out := "Fig 10 — Fairness: per-client throughput gain CDFs\n"
	for _, bin := range AllBins {
		byN := r.Gains[bin.Name]
		if byN == nil {
			continue
		}
		header := []string{"APs", "p10 gain", "p50 gain", "p90 gain", "n"}
		var rows [][]string
		for _, nAPs := range sortedKeys(byN) {
			g := byN[nAPs]
			if len(g) == 0 {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", nAPs),
				fmt.Sprintf("%.1f x", stats.Percentile(g, 10)),
				fmt.Sprintf("%.1f x", stats.Percentile(g, 50)),
				fmt.Sprintf("%.1f x", stats.Percentile(g, 90)),
				fmt.Sprintf("%d", len(g)),
			})
		}
		out += bin.Name + "\n" + Table(header, rows) + "\n"
	}
	return out
}

func sortedKeys(m map[int][]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
