package core

import (
	"bytes"
	"math/cmplx"
	"testing"

	"megamimo/internal/csi"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// dot11nConfig mirrors the paper's second testbed: two 2-antenna APs, two
// 2-antenna clients, 20 MHz.
func dot11nConfig(seed int64, snrLo, snrHi units.Decibels) Config {
	cfg := DefaultConfig(2, 2, snrLo, snrHi)
	cfg.AntennasPerAP = 2
	cfg.AntennasPerClient = 2
	cfg.SampleRate = 20e6
	cfg.Seed = seed
	return cfg
}

func TestMeasureDot11nMatchesGenieMagnitudes(t *testing.T) {
	cfg := dot11nConfig(31, 20, 24)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MeasureDot11n(); err != nil {
		t.Fatal(err)
	}
	m := n.Msmt
	if m == nil || m.H[0].Rows != 4 || m.H[0].Cols != 4 {
		t.Fatalf("802.11n measurement shape wrong")
	}
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			cl, cm := row/2, row%2
			ap, am := col/2, col%2
			genie := n.Air.Link(n.APAntennaID(ap, am), n.ClientAntennaID(cl, cm)).FreqResponse(64)
			var err2, ref2 float64
			for i, b := range m.Bins {
				d := cmplx.Abs(m.H[i].At(row, col)) - cmplx.Abs(genie[b])
				err2 += d * d
				ref2 += cmplx.Abs(genie[b]) * cmplx.Abs(genie[b])
			}
			if err2/ref2 > 0.05 {
				t.Fatalf("H[%d][%d]: |H| error %.1f%%", row, col, 100*err2/ref2)
			}
		}
	}
}

func TestDot11nJointTransmitFourStreams(t *testing.T) {
	// Two 2-antenna APs serve two 2-antenna clients with four concurrent
	// streams — the paper's "combine two 2x2 MIMO systems to create a 4x4
	// MIMO system".
	cfg := dot11nConfig(32, 22, 26)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MeasureDot11n(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(0); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := n.ProbeAndSelectRate(300)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no rate deliverable over the 802.11n path")
	}
	src := rng.New(41)
	delivered := make([]int, 4)
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		payloads := make([][]byte, 4)
		for j := range payloads {
			payloads[j] = src.Bytes(make([]byte, 400))
		}
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range payloads {
			if res.OK[j] {
				if !bytes.Equal(res.Frames[j].Payload, payloads[j]) {
					t.Fatalf("stream %d corrupted", j)
				}
				delivered[j]++
			}
		}
	}
	for j, d := range delivered {
		if d < 3 {
			t.Fatalf("stream %d delivered %d/%d at %v", j, d, trials, mcs)
		}
	}
}

func TestDot11nRequiresTwoAntennasTotal(t *testing.T) {
	cfg := DefaultConfig(1, 1, 20, 24)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MeasureDot11n(); err == nil {
		t.Fatal("single-antenna network accepted")
	}
}

func TestDot11nCSIQuantizationTolerated(t *testing.T) {
	// Intel 5300 CSI is fixed point; 8-bit quantization must not break
	// beamforming.
	cfg := dot11nConfig(33, 22, 26)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MeasureDot11n(); err != nil {
		t.Fatal(err)
	}
	// Quantize each bin matrix row-wise, as the firmware would.
	for bi := range n.Msmt.H {
		for r := 0; r < n.Msmt.H[bi].Rows; r++ {
			row := n.Msmt.H[bi].Row(r)
			copy(row, csi.Quantize(row, 8))
		}
	}
	if _, err := n.Precode(0); err != nil {
		t.Fatal(err)
	}
	src := rng.New(43)
	payloads := make([][]byte, 4)
	for j := range payloads {
		payloads[j] = src.Bytes(make([]byte, 300))
	}
	res, err := n.JointTransmit(payloads, phy.MCS0)
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for _, ok := range res.OK {
		if ok {
			okCount++
		}
	}
	if okCount < 3 {
		t.Fatalf("only %d/4 streams survived 8-bit CSI quantization", okCount)
	}
}
