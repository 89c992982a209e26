package experiment

import (
	"fmt"

	"megamimo/internal/core"
	"megamimo/internal/rate"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// Fig11Point is one (#APs, link SNR) diversity-throughput sample.
type Fig11Point struct {
	APs       int
	LinkSNRdB units.Decibels
	MegaMIMO  float64 // bit/s with coherent diversity
	Dot11     float64 // bit/s single 802.11 transmitter
}

// Fig11Result reproduces "Diversity Throughput" (§11.4): all APs transmit
// the same packet coherently to one client; the received amplitudes add,
// so even a 0 dB client can carry real throughput.
type Fig11Result struct {
	Points []Fig11Point
}

// RunFig11 sweeps the per-AP link SNR from 0 to 25 dB for the given AP
// counts, averaging over several channel draws per point. Each channel
// draw is one engine cell with a seed derived from its (AP count, SNR,
// draw) coordinates.
func RunFig11(apCounts []int, draws int, seed int64) (*Fig11Result, error) {
	var snrGrid []units.Decibels
	for snr := units.Decibels(0); snr <= 25.01; snr += 2.5 {
		snrGrid = append(snrGrid, snr)
	}
	type cell struct{ mm, bl float64 }
	cells, err := MapNamed("fig11-dot11n", len(apCounts)*len(snrGrid)*draws, func(i int) (cell, error) {
		nAPs := apCounts[i/(len(snrGrid)*draws)]
		snr := snrGrid[(i/draws)%len(snrGrid)]
		d := i % draws
		n, err := network(rayleigh, nAPs, 1, snr, snr+0.5, seed+int64(d)*733+int64(nAPs)*17+int64(snr*10), func(c *core.Config) {
			c.LinkSpreadDB = 0.5 // "roughly similar SNRs to all APs"
		})
		if err != nil {
			return cell{}, err
		}
		if err := n.Measure(); err != nil {
			return cell{}, err
		}
		mmT, blT, err := diversityThroughput(n, snr)
		if err != nil {
			return cell{}, err
		}
		return cell{mm: mmT, bl: blT}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for a, nAPs := range apCounts {
		for s, snr := range snrGrid {
			var mm, bl []float64
			base := (a*len(snrGrid) + s) * draws
			for d := 0; d < draws; d++ {
				mm = append(mm, cells[base+d].mm)
				bl = append(bl, cells[base+d].bl)
			}
			res.Points = append(res.Points, Fig11Point{
				APs:       nAPs,
				LinkSNRdB: snr,
				MegaMIMO:  stats.Mean(mm),
				Dot11:     stats.Mean(bl),
			})
		}
	}
	return res, nil
}

// diversityThroughput selects the diversity rate from the measured
// channels, verifies it with real coherent transmissions, and returns the
// delivered goodput plus the single-transmitter 802.11 reference.
func diversityThroughput(n *core.Network, linkSNR units.Decibels) (mm, bl float64, err error) {
	margin := units.DBToLinear(-core.RateMarginDB)
	sub := core.DiversitySubcarrierSNR(n.Msmt, 0, n.Cfg.NoiseVar)
	for i := range sub {
		sub[i] *= margin
	}
	// ARF-style fallback: at deep-fade SNRs the noisy channel estimate
	// biases (Σ|ĥ|)² upward, so a failed rate steps down a tier before
	// the throughput sample is taken.
	const trials = 3
	if mcs, ok := rate.Select(sub); ok {
		for {
			delivered := 0
			var airtime int64
			for t := 0; t < trials; t++ {
				res, err := n.DiversityTransmit(0, make([]byte, PayloadBytes), mcs)
				if err != nil {
					return 0, 0, err
				}
				airtime += res.AirtimeSamples
				if res.OK[0] {
					delivered++
				}
			}
			if airtime > 0 {
				mm = float64(delivered*8*PayloadBytes) / units.Duration(units.Ticks(airtime), n.Cfg.SampleRate)
			}
			if delivered > 0 || mcs == 0 {
				break
			}
			mcs--
		}
	}
	// 802.11 reference: one transmitter at the raw link SNR.
	if mcs, ok := rate.SelectFlat(linkSNR - core.RateMarginDB); ok {
		bl = rate.ThroughputAtMCS(mcs, PayloadBytes, n.Cfg.SampleRate)
	}
	return mm, bl, nil
}

// String prints throughput vs SNR for each AP count plus the 802.11 line.
func (r *Fig11Result) String() string {
	header := []string{"eff. SNR (dB)"}
	counts := map[int]bool{}
	var order []int
	for _, p := range r.Points {
		if !counts[p.APs] {
			counts[p.APs] = true
			order = append(order, p.APs)
		}
	}
	for _, n := range order {
		header = append(header, fmt.Sprintf("%d APs (Mb/s)", n))
	}
	header = append(header, "802.11 (Mb/s)")
	bySNR := map[units.Decibels][]string{}
	var snrs []units.Decibels
	for _, p := range r.Points {
		if _, ok := bySNR[p.LinkSNRdB]; !ok {
			snrs = append(snrs, p.LinkSNRdB)
			bySNR[p.LinkSNRdB] = make([]string, len(order)+1)
		}
		for i, n := range order {
			if p.APs == n {
				bySNR[p.LinkSNRdB][i] = fmt.Sprintf("%.1f", p.MegaMIMO/1e6)
			}
		}
		bySNR[p.LinkSNRdB][len(order)] = fmt.Sprintf("%.1f", p.Dot11/1e6)
	}
	var rows [][]string
	for _, s := range snrs {
		rows = append(rows, append([]string{fmt.Sprintf("%.1f", s)}, bySNR[s]...))
	}
	return "Fig 11 — Diversity throughput vs SNR\n" + Table(header, rows)
}
