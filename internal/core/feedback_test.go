package core

import (
	"testing"

	"megamimo/internal/rng"
)

// TestCSIQuantizationKnob: moderate fixed-point CSI must not break the
// joint beamforming on the main measurement path.
func TestCSIQuantizationKnob(t *testing.T) {
	cfg := DefaultConfig(3, 3, 18, 24)
	cfg.Seed = 133
	cfg.WellConditioned = true
	cfg.CSIQuantBits = 7
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := n.ProbeAndSelectRate(300)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}
	src := rng.New(11)
	payloads := [][]byte{
		src.Bytes(make([]byte, 400)),
		src.Bytes(make([]byte, 400)),
		src.Bytes(make([]byte, 400)),
	}
	res, err := n.JointTransmit(payloads, mcs)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, okj := range res.OK {
		if okj {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("only %d/3 streams with 7-bit CSI", delivered)
	}
}
