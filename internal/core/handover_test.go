package core

import (
	"math"
	"testing"

	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// TestLeadHandoverKeepsBeamforming validates §9's per-transmission lead
// nomination: after one measurement phase, any AP can lead a joint
// transmission because every AP captured sync state toward every potential
// lead from the same measurement packet.
func TestLeadHandoverKeepsBeamforming(t *testing.T) {
	cfg := DefaultConfig(3, 3, 18, 24)
	cfg.Seed = 71
	cfg.WellConditioned = true
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
	src := rng.New(5)
	for _, leadIdx := range []int{0, 1, 2, 0, 2} {
		if err := n.SetLead(leadIdx); err != nil {
			t.Fatalf("SetLead(%d): %v", leadIdx, err)
		}
		payloads := make([][]byte, 3)
		for j := range payloads {
			payloads[j] = src.Bytes(make([]byte, 400))
		}
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			t.Fatalf("lead %d: %v", leadIdx, err)
		}
		delivered := 0
		for _, okj := range res.OK {
			if okj {
				delivered++
			}
		}
		if delivered < 2 {
			t.Fatalf("lead %d: only %d/3 streams delivered", leadIdx, delivered)
		}
	}
}

// TestLeadHandoverNullsHold checks the nulls survive a lead change: the
// INR with a non-default lead must stay in the same regime as the original.
func TestLeadHandoverNullsHold(t *testing.T) {
	cfg := DefaultConfig(3, 3, 18, 24)
	cfg.Seed = 73
	cfg.WellConditioned = true
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
	inr0, err := n.NullingINR(0, 400, phy.MCS0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetLead(2); err != nil {
		t.Fatalf("SetLead(2): %v", err)
	}
	inr2, err := n.NullingINR(0, 400, phy.MCS0)
	if err != nil {
		t.Fatal(err)
	}
	d0, d2 := 10*math.Log10(inr0), 10*math.Log10(inr2)
	t.Logf("INR lead0 %.1f dB, lead2 %.1f dB", d0, d2)
	if d2 > d0+6 || d2 > 3 {
		t.Fatalf("nulls degraded after handover: %.1f dB vs %.1f dB", d2, d0)
	}
}

// TestPeerSyncCFOAccuracyAllPairs verifies every AP's CFO estimate toward
// every other AP, not just slaves toward the default lead.
func TestPeerSyncCFOAccuracyAllPairs(t *testing.T) {
	cfg := DefaultConfig(4, 1, 20, 24)
	cfg.Seed = 74
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	for _, ap := range n.APs {
		for _, peer := range n.APs {
			if ap.Index == peer.Index {
				continue
			}
			want := peer.Node.Osc.CFORadPerSample() - ap.Node.Osc.CFORadPerSample()
			got := ap.syncTo(peer.Index).CFO
			if units.Abs(got-want) > 1e-4 {
				t.Fatalf("AP %d → %d: cfo %v, true %v", ap.Index, peer.Index, got, want)
			}
		}
	}
}
