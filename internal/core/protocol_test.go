package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func TestMisalignmentSmall(t *testing.T) {
	// §11.1(b): the distributed phase sync must keep the lead/slave
	// relative phase within a few hundredths of a radian across rounds.
	n := buildNet(t, 2, 1, 26, 30, 21)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	devs, err := n.MeasureMisalignment(40, 20000) // 2 ms gaps
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 39 {
		t.Fatalf("%d deviations", len(devs))
	}
	sort.Float64s(devs)
	median := devs[len(devs)/2]
	p95 := devs[int(float64(len(devs))*0.95)]
	t.Logf("misalignment: median %.4f rad, p95 %.4f rad (paper: 0.017 / 0.05)", median, p95)
	if median > 0.05 {
		t.Fatalf("median misalignment %.4f rad too large", median)
	}
	if p95 > 0.15 {
		t.Fatalf("p95 misalignment %.4f rad too large", p95)
	}
}

func TestDiversityTransmitRescuesWeakClient(t *testing.T) {
	// §8 / Fig. 11: coherent combining from several APs reaches a client
	// whose individual links are too weak for a single AP.
	cfg := DefaultConfig(6, 1, 4, 7) // ~5 dB per-AP links
	cfg.Seed = 22
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	payload := src.Bytes(make([]byte, 700))
	res, err := n.DiversityTransmit(0, payload, phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK[0] || !bytes.Equal(res.Frames[0].Payload, payload) {
		t.Fatal("diversity transmission failed at QPSK with 6 APs on ~5 dB links")
	}
	// The frame SNR should reflect coherent gain: well above any single
	// link (≈5 dB + 10·log10(36) ≈ 20 dB; demand at least 12).
	if res.Frames[0].SNRdB < 12 {
		t.Fatalf("diversity SNR %.1f dB shows no coherent gain", res.Frames[0].SNRdB)
	}
}

func TestDiversitySNRScalesQuadratically(t *testing.T) {
	// N APs aligned in phase give ~N² received power (paper: "coherent
	// diversity ... multiplicative increase in the SNR of N²").
	snr := func(nAPs int) float64 {
		cfg := DefaultConfig(nAPs, 1, 10, 11)
		cfg.Seed = 23
		cfg.LinkSpreadDB = 0.1
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Measure(); err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		res, err := n.DiversityTransmit(0, src.Bytes(make([]byte, 400)), phy.MCS0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames[0] == nil {
			t.Fatal("no frame")
		}
		return units.Ratio(res.Frames[0].SNRdB, 1)
	}
	s2, s8 := snr(2), snr(8)
	gain := s8 - s2
	// N² scaling predicts 20·log10(8/2) ≈ 12 dB; allow generous slack for
	// fading and the receiver's EVM floor.
	t.Logf("diversity SNR: 2 APs %.1f dB, 8 APs %.1f dB (Δ %.1f, theory ≈12)", s2, s8, gain)
	if gain < 6 {
		t.Fatalf("diversity gain %.1f dB far from quadratic scaling", gain)
	}
}

func TestDecoupledMeasurementStillBeamforms(t *testing.T) {
	// §7: channels to client 0 and client 1 measured in separate packets
	// 30 ms apart must still yield working joint nulls.
	cfg := DefaultConfig(2, 2, 18, 24)
	cfg.Seed = 24
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MeasureDecoupled([][]int{{0}, {1}}, 300000); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(0); err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	payloads := [][]byte{src.Bytes(make([]byte, 600)), src.Bytes(make([]byte, 600))}
	delivered := 0
	for trial := 0; trial < 4; trial++ {
		res, err := n.JointTransmit(payloads, phy.MCS2)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK[0] && res.OK[1] {
			delivered++
		}
	}
	if delivered < 3 {
		t.Fatalf("decoupled measurement delivered both streams in only %d/4 transmissions", delivered)
	}
}

func TestDecoupledMatchesJointMeasurementQuality(t *testing.T) {
	// The INR with decoupled measurement should stay in the same regime as
	// a single-shot measurement.
	joint := buildNet(t, 3, 3, 18, 24, 25)
	if _, err := joint.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	inrJ, err := joint.NullingINR(0, 400, phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	dec := buildNet(t, 3, 3, 18, 24, 25)
	if err := dec.MeasureDecoupled([][]int{{0, 1}, {2}}, 100000); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Precode(0); err != nil {
		t.Fatal(err)
	}
	inrD, err := dec.NullingINR(0, 400, phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	dJ, dD := 10*math.Log10(inrJ), 10*math.Log10(inrD)
	t.Logf("INR joint %.1f dB, decoupled %.1f dB", dJ, dD)
	if dD > dJ+4 {
		t.Fatalf("decoupled measurement degrades INR: %.1f vs %.1f dB", dD, dJ)
	}
}

func TestProbeAndSelectRateRunsEndToEnd(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 26)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := n.ProbeAndSelectRate(300)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("probe found no rate at 18-24 dB")
	}
	if mcs < phy.MCS1 {
		t.Fatalf("adapted rate %v implausibly low for 18-24 dB links", mcs)
	}
}

func TestGoodputBits(t *testing.T) {
	r := &TxResult{
		Frames: []*phy.RxFrame{{Payload: make([]byte, 100)}, {Payload: make([]byte, 100)}},
		OK:     []bool{true, false},
	}
	if got := r.GoodputBits(); got != 800 {
		t.Fatalf("GoodputBits = %v", got)
	}
}
