package experiment

import (
	"fmt"

	"megamimo/internal/cmplxs"
	"megamimo/internal/phy"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// Fig8Point is the average INR for one (#receivers, SNR bin) cell.
type Fig8Point struct {
	Receivers int
	Bin       string
	INRdB     units.Decibels
}

// Fig8Result reproduces "Accuracy of Phase Alignment": for each topology
// the APs null at one client while transmitting to the others; any power
// at the nulled client is interference from imperfect phase alignment.
type Fig8Result struct {
	Points []Fig8Point
}

// RunFig8 sweeps 2–maxN AP/receiver counts across the three SNR bins,
// averaging the per-victim INR across topologies and victims (§11.1c
// "for each topology, we null at each client, and compute the average
// interference to noise ratio across clients"). One engine cell measures
// one topology; its seed is a pure function of the (bin, #APs, topology)
// coordinates so the grid parallelizes deterministically.
func RunFig8(maxN, topologies int, seed int64) (*Fig8Result, error) {
	if maxN < 2 {
		return &Fig8Result{}, nil
	}
	nCounts := maxN - 1 // AP counts 2..maxN
	cells, err := MapNamed("fig8-sumrate", len(AllBins)*nCounts*topologies, func(i int) ([]float64, error) {
		binIdx := i / (nCounts * topologies)
		nAPs := 2 + (i/topologies)%nCounts
		topo := i % topologies
		bin := AllBins[binIdx]
		n, err := network(haar, nAPs, nAPs, bin.Lo, bin.Hi, seed+int64(topo)*131+int64(nAPs)*7+int64(binIdx), nil)
		if err != nil {
			return nil, err
		}
		if err := n.Measure(); err != nil {
			return nil, err
		}
		if _, err := n.Precode(n.Cfg.NoiseVar); err != nil {
			return nil, nil // singular draw
		}
		inrs := make([]float64, 0, nAPs)
		for victim := 0; victim < nAPs; victim++ {
			inr, err := n.NullingINR(victim, 700, phy.MCS0)
			if err != nil {
				return nil, err
			}
			inrs = append(inrs, inr)
		}
		return inrs, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for b, bin := range AllBins {
		for nAPs := 2; nAPs <= maxN; nAPs++ {
			var inrs []float64
			base := (b*nCounts + nAPs - 2) * topologies
			for topo := 0; topo < topologies; topo++ {
				inrs = append(inrs, cells[base+topo]...)
			}
			if len(inrs) == 0 {
				continue
			}
			res.Points = append(res.Points, Fig8Point{
				Receivers: nAPs,
				Bin:       bin.Name,
				INRdB:     cmplxs.DB(stats.Mean(inrs)),
			})
		}
	}
	return res, nil
}

// String prints the three INR-vs-N series.
func (r *Fig8Result) String() string {
	header := []string{"receivers"}
	for _, b := range AllBins {
		header = append(header, b.Name)
	}
	byN := map[int][]string{}
	var order []int
	for _, p := range r.Points {
		if _, ok := byN[p.Receivers]; !ok {
			order = append(order, p.Receivers)
			byN[p.Receivers] = make([]string, len(AllBins))
		}
		for i, b := range AllBins {
			if p.Bin == b.Name {
				byN[p.Receivers][i] = fmt.Sprintf("%.2f dB", p.INRdB)
			}
		}
	}
	var rows [][]string
	for _, n := range order {
		rows = append(rows, append([]string{fmt.Sprintf("%d", n)}, byN[n]...))
	}
	return "Fig 8 — INR at a nulled client vs number of receivers\n" + Table(header, rows)
}

// SlopePerPair returns the average INR growth in dB per added AP-client
// pair for the given bin (the paper reports ≈0.13 dB at high SNR).
func (r *Fig8Result) SlopePerPair(bin string) float64 {
	var xs []Fig8Point
	for _, p := range r.Points {
		if p.Bin == bin {
			xs = append(xs, p)
		}
	}
	if len(xs) < 2 {
		return 0
	}
	first, last := xs[0], xs[len(xs)-1]
	return units.Ratio(last.INRdB-first.INRdB, 1) / float64(last.Receivers-first.Receivers)
}
