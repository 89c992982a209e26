// Off-the-shelf 802.11n clients (§6 / Fig. 12): two 2-antenna APs jointly
// serve two unmodified 2-antenna clients with four concurrent streams.
// Channel measurement uses the reference-antenna trick — a series of
// two-stream soundings that always include the lead's reference antenna —
// because an 802.11n card can only measure two channels at a time.
package main

import (
	"fmt"
	"log"

	"megamimo"
	"megamimo/internal/baseline"
	"megamimo/internal/units"
)

func main() {
	cfg := megamimo.DefaultConfig(2, 2, 20, 25)
	cfg.AntennasPerAP = 2
	cfg.AntennasPerClient = 2
	cfg.SampleRate = 20e6 // 802.11n channel width
	cfg.WellConditioned = true
	net, err := megamimo.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// §6.2: sounding slots with the reference antenna; slaves track their
	// lead offset from each slot's legacy sync header.
	if err := net.MeasureDot11n(); err != nil {
		log.Fatal(err)
	}
	if _, err := net.Precode(cfg.NoiseVar); err != nil {
		log.Fatal(err)
	}

	mcs, ok, err := net.ProbeAndSelectRate(256)
	if err != nil || !ok {
		log.Fatalf("rate adaptation failed: %v", err)
	}
	payloads := make([][]byte, 4)
	for j := range payloads {
		payloads[j] = make([]byte, 1500)
	}
	res, err := net.JointTransmit(payloads, mcs)
	if err != nil {
		log.Fatal(err)
	}
	delivered := 0
	for j, ok := range res.OK {
		fmt.Printf("client %d stream %d: delivered=%v\n", j/2, j%2, ok)
		if ok {
			delivered++
		}
	}
	mm := float64(delivered*8*1500) / units.Duration(units.Ticks(res.AirtimeSamples), cfg.SampleRate)
	bl, _, err := (&baseline.SingleAPMIMO{Net: net}).Throughput(1500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4-stream joint at %v: %.0f Mb/s total\n", mcs, mm/1e6)
	fmt.Printf("802.11n TDMA baseline:   %.0f Mb/s total\n", bl/1e6)
	fmt.Printf("gain: %.2fx (paper: 1.67-1.83x, theoretical max 2x)\n", mm/bl)
}
