// Conference-room scaling: the paper's headline experiment (Fig. 9) in
// miniature. Add APs and clients on the same channel and watch total
// throughput grow linearly while the 802.11 baseline stays flat.
package main

import (
	"fmt"
	"log"

	"megamimo"
	"megamimo/internal/baseline"
	"megamimo/internal/core"
	"megamimo/internal/units"
)

func main() {
	fmt.Println("APs  802.11 (Mb/s)  MegaMIMO (Mb/s)  gain")
	for _, nAPs := range []int{2, 4, 6, 8} {
		cfg := megamimo.DefaultConfig(nAPs, nAPs, 18, 24)
		cfg.WellConditioned = true
		cfg.Seed = int64(nAPs) * 101
		net, err := megamimo.NewNetwork(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := net.Measure(); err != nil {
			log.Fatal(err)
		}
		if _, err := net.Precode(cfg.NoiseVar); err != nil {
			log.Fatal(err)
		}

		mcs, ok, err := net.ProbeAndSelectRate(256)
		if err != nil || !ok {
			log.Fatalf("rate adaptation failed: %v", err)
		}
		mm := measureThroughput(net, mcs, nAPs)
		bl, _, err := baseline.New(net).EqualShareThroughput(1500)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3d  %13.1f  %15.1f  %4.1fx\n", nAPs, bl/1e6, mm/1e6, mm/bl)
	}
}

func measureThroughput(net *core.Network, mcs megamimo.MCS, streams int) float64 {
	var bits float64
	var airtime int64
	for round := 0; round < 3; round++ {
		payloads := make([][]byte, streams)
		for j := range payloads {
			payloads[j] = make([]byte, 1500)
		}
		res, err := net.JointTransmit(payloads, mcs)
		if err != nil {
			log.Fatal(err)
		}
		bits += res.GoodputBits()
		airtime += res.AirtimeSamples
	}
	return bits / units.Duration(units.Ticks(airtime), net.Cfg.SampleRate)
}
