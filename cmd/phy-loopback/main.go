// Command phy-loopback sweeps the PHY's frame-delivery waterfall: for
// every MCS it measures the delivery rate across an SNR range over AWGN,
// the calibration behind the effective-SNR rate table (internal/rate).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"megamimo/internal/cmplxs"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func main() {
	var (
		trials  = flag.Int("trials", 20, "frames per (MCS, SNR) point")
		bytes   = flag.Int("bytes", 200, "payload size")
		snrLo   = flag.Float64("snr-lo", 0, "sweep start (dB)")
		snrHi   = flag.Float64("snr-hi", 24, "sweep end (dB)")
		snrStep = flag.Float64("snr-step", 1, "sweep step (dB)")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	if err := validate(*trials, *bytes, *snrLo, *snrHi, *snrStep); err != nil {
		fmt.Fprintln(os.Stderr, "phy-loopback:", err)
		os.Exit(2)
	}

	tx, rx := phy.NewTX(), phy.NewRX()
	src := rng.New(*seed)
	for m := phy.MCS0; m < phy.NumMCS; m++ {
		payload := src.Bytes(make([]byte, *bytes))
		wave, err := tx.Frame(payload, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var p float64
		for _, v := range wave[320:] {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		p /= float64(len(wave) - 320)
		fmt.Printf("%-12v", m)
		for db := *snrLo; db <= *snrHi; db += *snrStep {
			nv := p / cmplxs.FromDB(units.Decibels(db))
			ok := 0
			for t := 0; t < *trials; t++ {
				stream := make([]complex128, 100+len(wave)+20)
				copy(stream[100:], wave)
				n := src.Split(uint64(int(m)*100000 + int(db*10)*100 + t))
				for i := range stream {
					stream[i] += n.ComplexNormal(nv)
				}
				f, err := rx.Decode(stream)
				if err == nil && f.FCSOK {
					ok++
				}
			}
			fmt.Printf(" %2.0f:%3.0f%%", db, 100*float64(ok)/float64(*trials))
		}
		fmt.Println()
	}
}

// validate rejects flag values the sweep cannot run with: they would
// panic, loop forever, or print rates over zero trials.
func validate(trials, bytes int, snrLo, snrHi, snrStep float64) error {
	switch {
	case trials < 1:
		return fmt.Errorf("-trials %d must be at least 1", trials)
	case bytes < 0 || bytes > phy.MaxPSDU:
		return fmt.Errorf("-bytes %d out of range 0..%d", bytes, phy.MaxPSDU)
	case !(snrStep > 0):
		return fmt.Errorf("-snr-step %v must be positive", snrStep)
	case !(snrHi-snrLo >= 0) || math.IsInf(snrHi-snrLo, 0):
		return fmt.Errorf("-snr-lo %v to -snr-hi %v is not a finite, ascending range", snrLo, snrHi)
	}
	return nil
}
