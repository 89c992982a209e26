package core

import (
	"bytes"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// buildNet is the shared test constructor.
func buildNet(t *testing.T, nAPs, nClients int, snrLo, snrHi units.Decibels, seed int64) *Network {
	t.Helper()
	cfg := DefaultConfig(nAPs, nClients, snrLo, snrHi)
	cfg.Seed = seed
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestAntennaIDsDisjoint(t *testing.T) {
	n := buildNet(t, 4, 4, 15, 20, 1)
	seen := map[int]bool{}
	for a := 0; a < 4; a++ {
		id := n.APAntennaID(a, 0)
		if seen[id] {
			t.Fatalf("duplicate antenna id %d", id)
		}
		seen[id] = true
	}
	for c := 0; c < 4; c++ {
		id := n.ClientAntennaID(c, 0)
		if seen[id] {
			t.Fatalf("duplicate antenna id %d", id)
		}
		seen[id] = true
	}
}

func TestLeadElection(t *testing.T) {
	n := buildNet(t, 3, 3, 15, 20, 1)
	if n.Lead().Index != 0 || len(n.Slaves()) != 2 {
		t.Fatal("default lead wrong")
	}
	if err := n.SetLead(2); err != nil {
		t.Fatalf("SetLead(2): %v", err)
	}
	if n.Lead().Index != 2 {
		t.Fatal("SetLead failed")
	}
	for _, s := range n.Slaves() {
		if s.Index == 2 {
			t.Fatal("lead listed among slaves")
		}
	}
}

func TestMeasureProducesConsistentChannelEstimates(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 22, 3)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	m := n.Msmt
	if m == nil || len(m.H) == 0 {
		t.Fatal("no measurement")
	}
	// Compare estimated |H| against the genie channel frequency response
	// (phases differ by the per-node oscillator phases, magnitudes must
	// match).
	for c := 0; c < 2; c++ {
		for a := 0; a < 2; a++ {
			genie := n.Air.Link(n.APAntennaID(a, 0), n.ClientAntennaID(c, 0)).FreqResponse(64)
			var err2, ref2 float64
			for i, b := range m.Bins {
				ge := cmplx.Abs(genie[b])
				est := cmplx.Abs(m.H[i].At(c, a))
				err2 += (ge - est) * (ge - est)
				ref2 += ge * ge
			}
			if err2/ref2 > 0.02 {
				t.Fatalf("client %d AP %d: |H| estimate error %.1f%%", c, a, 100*err2/ref2)
			}
		}
	}
	// Slaves must hold a reference channel.
	for _, s := range n.Slaves() {
		if s.syncTo(n.Lead().Index).Ref == nil {
			t.Fatalf("slave %d missing reference state", s.Index)
		}
	}
}

func TestMeasuredCFOMatchesOscillators(t *testing.T) {
	n := buildNet(t, 3, 1, 20, 22, 4)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	lead := n.Lead()
	for _, s := range n.Slaves() {
		want := lead.Node.Osc.CFORadPerSample() - s.Node.Osc.CFORadPerSample()
		got := s.syncTo(lead.Index).CFO
		if units.Abs(got-want) > 5e-5 {
			t.Fatalf("slave %d CFO estimate %v, true %v", s.Index, got, want)
		}
	}
}

func TestJointTransmitBeforeMeasureFails(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 22, 5)
	_, err := n.JointTransmit(make([][]byte, 2), phy.MCS2)
	if err == nil {
		t.Fatal("transmit without measurement accepted")
	}
}

func TestJointTransmitTwoByTwo(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 6)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	payloads := [][]byte{src.Bytes(make([]byte, 700)), src.Bytes(make([]byte, 700))}
	res, err := n.JointTransmit(payloads, phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if !res.OK[j] {
			snr := units.Decibels(-1)
			if res.Frames[j] != nil {
				snr = res.Frames[j].SNRdB
			}
			t.Fatalf("stream %d failed (frame SNR %v dB)", j, snr)
		}
		if !bytes.Equal(res.Frames[j].Payload, payloads[j]) {
			t.Fatalf("stream %d payload corrupted", j)
		}
	}
}

func TestJointTransmitConcurrentStreamsDiffer(t *testing.T) {
	// The whole point: different payloads delivered at the same time on
	// the same channel.
	n := buildNet(t, 3, 3, 18, 24, 7)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	// Closed-loop link adaptation: probe, then run at the adapted rate
	// (the zero-forcing power penalty k² — the paper's K factor — and the
	// realized residual interference decide what each client sustains).
	mcs, ok, err := n.ProbeAndSelectRate(400)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no deliverable MCS")
	}
	src := rng.New(123)
	const trials = 5
	delivered := make([]int, 3)
	for trial := 0; trial < trials; trial++ {
		payloads := [][]byte{
			src.Bytes(make([]byte, 500)),
			src.Bytes(make([]byte, 500)),
			src.Bytes(make([]byte, 500)),
		}
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range payloads {
			if res.OK[j] {
				if !bytes.Equal(res.Frames[j].Payload, payloads[j]) {
					t.Fatalf("stream %d delivered corrupted payload", j)
				}
				delivered[j]++
			}
		}
	}
	// Different data must flow concurrently to every client; occasional
	// per-packet losses are ordinary link behavior handled by retransmit.
	for j, d := range delivered {
		if d < 3 {
			t.Fatalf("stream %d delivered only %d/%d at adapted rate %v", j, d, trials, mcs)
		}
	}
}

func TestRepeatedTransmissionsAmortizeOneMeasurement(t *testing.T) {
	// §5: "a single channel measurement phase can be followed by multiple
	// data transmissions" — the direct phase measurement must keep nulls
	// intact over many packets and tens of milliseconds.
	n := buildNet(t, 2, 2, 18, 24, 8)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	for pkt := 0; pkt < 8; pkt++ {
		payloads := [][]byte{src.Bytes(make([]byte, 400)), src.Bytes(make([]byte, 400))}
		res, err := n.JointTransmit(payloads, phy.MCS2)
		if err != nil {
			t.Fatal(err)
		}
		for j := range payloads {
			if !res.OK[j] {
				t.Fatalf("packet %d stream %d failed", pkt, j)
			}
		}
		// Idle gap between packets: oscillators keep drifting.
		n.AdvanceTime(20000) // 2 ms at 10 MHz
	}
}

func TestNullingINRIsSmall(t *testing.T) {
	n := buildNet(t, 3, 3, 18, 24, 9)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	inr, err := n.NullingINR(0, 400, phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	inrDB := 10 * math.Log10(inr)
	// Paper Fig. 8: INR stays below ~1.5 dB even with 10 pairs; for 3 it
	// should be small. Allow slack but catch gross misalignment.
	if inrDB > 3 {
		t.Fatalf("INR %v dB — nulls not holding", inrDB)
	}
}

// TestRxFrameOutlivesLaterRounds: every client decodes through the
// network's one receiver from its one observation window, so a decoded
// frame must own its fields — a later JointTransmit and NullingINR on the
// same network leave them unchanged.
func TestRxFrameOutlivesLaterRounds(t *testing.T) {
	n := buildNet(t, 3, 3, 18, 24, 9)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(21)
	round := func() *TxResult {
		payloads := make([][]byte, n.NumStreams())
		for j := range payloads {
			payloads[j] = src.Bytes(make([]byte, 300))
		}
		res, err := n.JointTransmit(payloads, phy.MCS2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := round()
	type fields struct {
		channel []complex128
		payload []byte
		snr     []float64
	}
	kept := make([]fields, len(res.Frames))
	for j, f := range res.Frames {
		if f == nil || !f.FCSOK {
			t.Fatalf("stream %d not delivered", j)
		}
		kept[j] = fields{slices.Clone(f.Channel), slices.Clone(f.Payload), slices.Clone(f.SubcarrierSNR)}
	}
	round()
	if _, err := n.NullingINR(0, 300, phy.MCS2); err != nil {
		t.Fatal(err)
	}
	for j, f := range res.Frames {
		if !slices.Equal(f.Channel, kept[j].channel) || !bytes.Equal(f.Payload, kept[j].payload) ||
			!slices.Equal(f.SubcarrierSNR, kept[j].snr) {
			t.Errorf("stream %d: a later round overwrote the decoded frame's fields", j)
		}
	}
}

func TestZFPrecoderDiagonalizesMeasuredChannel(t *testing.T) {
	n := buildNet(t, 3, 3, 18, 22, 10)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	p, err := n.Precode(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Msmt.H {
		prod := n.Msmt.H[i].Mul(p.W[i])
		for r := 0; r < prod.Rows; r++ {
			for c := 0; c < prod.Cols; c++ {
				v := cmplx.Abs(prod.At(r, c))
				if r == c && math.Abs(v-p.PowerScale) > 1e-6*p.PowerScale {
					t.Fatalf("bin %d diag %v != k %v", n.Msmt.Bins[i], v, p.PowerScale)
				}
				if r != c && v > 1e-9 {
					t.Fatalf("bin %d off-diag %v", n.Msmt.Bins[i], v)
				}
			}
		}
	}
}

func TestDiversityPrecoderUnitWeights(t *testing.T) {
	n := buildNet(t, 4, 1, 10, 14, 11)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	p, err := ComputeDiversity(n.Msmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.W {
		for a := 0; a < p.TxAnts; a++ {
			if m := cmplx.Abs(p.W[i].At(a, 0)); math.Abs(m-1) > 1e-9 {
				t.Fatalf("diversity weight magnitude %v", m)
			}
		}
	}
	if _, err := ComputeDiversity(n.Msmt, 5); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
}
