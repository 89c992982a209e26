// Mobility / coherence time: MegaMIMO amortizes one channel measurement
// over many packets (§5), but the snapshot ages as people move. This
// example lets the channel evolve with a Gauss-Markov coherence model and
// shows per-client delivery collapsing for the moving client — and only
// for it (§9's loss decoupling) — until a re-measurement restores it.
package main

import (
	"fmt"
	"log"

	"megamimo"
	"megamimo/internal/channel"
	"megamimo/internal/rng"
)

func main() {
	cfg := megamimo.DefaultConfig(3, 3, 20, 25)
	cfg.WellConditioned = true
	cfg.Seed = 7
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
	mcs, ok, err := net.ProbeAndSelectRate(300)
	if err != nil || !ok {
		log.Fatalf("rate adaptation failed: %v", err)
	}
	fmt.Printf("running at %v; client 0 starts walking after batch 2\n\n", mcs)
	fmt.Println("batch  client0  client1  client2   (delivery per 5 packets)")

	src := rng.New(1)
	for batch := 0; batch < 6; batch++ {
		if batch >= 2 && batch < 4 {
			// Client 0 moves: ~50 ms of pedestrian Doppler per batch against
			// a 250 ms coherence time.
			net.EvolveClientLinks(0, channel.CoherenceRho(0.05, 0.25))
		}
		if batch == 4 {
			// The link layer notices the losses and triggers a fresh
			// measurement phase (cheap: a single packet, amortized) plus
			// rate re-adaptation — the walk changed client 0's channel for
			// real, so the old rate may not fit the new zero-forcing
			// geometry.
			if err := net.Measure(); err != nil {
				log.Fatal(err)
			}
			if _, err := net.Precode(cfg.NoiseVar); err != nil {
				log.Fatal(err)
			}
			if mcs, ok, err = net.ProbeAndSelectRate(300); err != nil || !ok {
				log.Fatalf("re-adaptation failed: %v", err)
			}
			fmt.Printf("   -- re-measured, re-adapted to %v --\n", mcs)
		}
		counts := [3]int{}
		for i := 0; i < 5; i++ {
			payloads := [][]byte{
				src.Bytes(make([]byte, 800)),
				src.Bytes(make([]byte, 800)),
				src.Bytes(make([]byte, 800)),
			}
			res, err := net.JointTransmit(payloads, mcs)
			if err != nil {
				log.Fatal(err)
			}
			for j, okj := range res.OK {
				if okj {
					counts[j]++
				}
			}
		}
		fmt.Printf("%5d  %d/5      %d/5      %d/5\n", batch, counts[0], counts[1], counts[2])
	}
}
