package phy

import (
	"bytes"
	"math"
	"megamimo/internal/units"
	"testing"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
	"megamimo/internal/rng"
)

func TestMCSTable(t *testing.T) {
	// 20 MHz bit rates must be the classic 802.11a ladder.
	want := []float64{6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6}
	for m := MCS0; m < NumMCS; m++ {
		if got := m.BitRate(20e6); math.Abs(got-want[m]) > 1 {
			t.Errorf("%v BitRate = %v, want %v", m, got, want[m])
		}
		// Consistency: ncbps = 48 × bits/subcarrier; ndbps = ncbps × rate.
		info := m.info()
		if info.ncbps != 48*info.scheme.BitsPerSymbol() {
			t.Errorf("%v ncbps inconsistent", m)
		}
		if got := float64(info.ncbps) * info.rate.Fraction(); math.Abs(got-float64(info.ndbps)) > 1e-9 {
			t.Errorf("%v ndbps inconsistent", m)
		}
	}
	if MCS(-1).Valid() || MCS(8).Valid() {
		t.Error("Valid accepts out-of-range MCS")
	}
}

func TestSignalBitsRoundTrip(t *testing.T) {
	for m := MCS0; m < NumMCS; m++ {
		got, err := mcsFromSignalBits(m.info().signal)
		if err != nil || got != m {
			t.Errorf("signal bits round trip for %v: %v, %v", m, got, err)
		}
	}
	if _, err := mcsFromSignalBits(0b0000); err == nil {
		t.Error("accepted invalid RATE bits")
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := NewTX().FrameSymbols(make([]byte, MaxPSDU+1), MCS0); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if _, err := NewTX().FrameSymbols([]byte{1}, MCS(9)); err == nil {
		t.Fatal("invalid MCS accepted")
	}
}

func TestLoopbackCleanChannelAllMCS(t *testing.T) {
	tx, rx := NewTX(), NewRX()
	s := rng.New(1)
	payload := s.Bytes(make([]byte, 600))
	for m := MCS0; m < NumMCS; m++ {
		wave, err := tx.Frame(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]complex128, 300+len(wave)+100)
		copy(stream[300:], wave)
		// A trickle of noise so detection normalization is well posed.
		n := rng.New(int64(m) + 2)
		for i := range stream {
			stream[i] += n.ComplexNormal(1e-6)
		}
		frame, err := rx.Decode(stream)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if frame.MCS != m {
			t.Fatalf("MCS decoded as %v, want %v", frame.MCS, m)
		}
		if !frame.FCSOK {
			t.Fatalf("%v: FCS failed on clean channel", m)
		}
		if !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("%v: payload corrupted", m)
		}
	}
}

func TestLoopbackWithChannelCFOAndNoise(t *testing.T) {
	tx, rx := NewTX(), NewRX()
	s := rng.New(3)
	payload := s.Bytes(make([]byte, 1500))
	wave, err := tx.Frame(payload, MCS4) // 16-QAM 1/2
	if err != nil {
		t.Fatal(err)
	}
	taps := []complex128{0.85, 0.25 - 0.15i, 0.05i}
	conv := dsp.Convolve(wave, taps)
	stream := make([]complex128, 200+len(conv)+50)
	copy(stream[200:], conv)
	cmplxs.Rotate(stream, stream, 0.7, 0.003) // ~6 kHz CFO at 10 MHz class rates
	for i := range stream {
		stream[i] += s.ComplexNormal(2e-3) // ≈27 dB pre-channel SNR
	}
	frame, err := rx.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.FCSOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("frame corrupted through channel (FCSOK=%v)", frame.FCSOK)
	}
	if frame.SNRdB < 10 {
		t.Fatalf("implausible SNR estimate %v dB", frame.SNRdB)
	}
}

func TestLoopbackHighOrderMCSNeedsHighSNR(t *testing.T) {
	tx, rx := NewTX(), NewRX()
	s := rng.New(4)
	payload := s.Bytes(make([]byte, 400))
	wave, err := tx.Frame(payload, MCS7)
	if err != nil {
		t.Fatal(err)
	}
	// At ~8 dB SNR, 64-QAM 3/4 must fail; at ~30 dB it must pass.
	run := func(noiseVar float64) bool {
		stream := make([]complex128, 100+len(wave)+50)
		copy(stream[100:], wave)
		n := rng.New(5)
		for i := range stream {
			stream[i] += n.ComplexNormal(noiseVar)
		}
		frame, err := rx.Decode(stream)
		return err == nil && frame.FCSOK && bytes.Equal(frame.Payload, payload)
	}
	// Signal power on occupied samples ≈ 52/64 ≈ 0.81.
	if !run(0.81 / cmplxs.FromDB(30)) {
		t.Fatal("MCS7 failed at 30 dB")
	}
	if run(0.81 / cmplxs.FromDB(8)) {
		t.Fatal("MCS7 succeeded at 8 dB — noise model suspicious")
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	tx, rx := NewTX(), NewRX()
	s := rng.New(6)
	payload := s.Bytes(make([]byte, 300))
	wave, _ := tx.Frame(payload, MCS2)
	stream := make([]complex128, 100+len(wave)+20)
	copy(stream[100:], wave)
	n := rng.New(7)
	for i := range stream {
		stream[i] += n.ComplexNormal(1e-6)
	}
	// Burst-corrupt a mid-payload region beyond what the code corrects.
	for i := 1200; i < 1600 && 100+i < len(stream); i++ {
		stream[100+i] = 0
	}
	frame, err := rx.Decode(stream)
	if err != nil {
		t.Skip("corruption broke sync entirely; acceptable")
	}
	if frame.FCSOK && !bytes.Equal(frame.Payload, payload) {
		t.Fatal("FCS passed on corrupted payload")
	}
}

func TestSynthesizeWithGainScalesWaveform(t *testing.T) {
	tx := NewTX()
	s := rng.New(8)
	f, err := tx.FrameSymbols(s.Bytes(make([]byte, 100)), MCS2)
	if err != nil {
		t.Fatal(err)
	}
	unit := synth(tx, f, nil)
	gain := make([]complex128, ofdm.NFFT)
	for i := range gain {
		gain[i] = 0.5i
	}
	scaled := synth(tx, f, gain)
	if len(scaled) != len(unit) {
		t.Fatal("length changed with gain")
	}
	for i := range unit {
		if d := scaled[i] - unit[i]*0.5i; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("flat gain not equivalent to scalar multiply at %d", i)
		}
	}
}

func TestSynthesizeWithFrequencySelectiveGainDecodes(t *testing.T) {
	// A per-bin gain acts like a pre-applied channel; the receiver must
	// absorb it into its channel estimate and still decode.
	tx, rx := NewTX(), NewRX()
	s := rng.New(9)
	payload := s.Bytes(make([]byte, 500))
	f, err := tx.FrameSymbols(payload, MCS3)
	if err != nil {
		t.Fatal(err)
	}
	gain := make([]complex128, ofdm.NFFT)
	for i := range gain {
		gain[i] = cmplxs.Expi(units.Radians(0.1*float64(i))) * complex(0.8+0.2*math.Sin(float64(i)), 0)
	}
	wave := synth(tx, f, gain)
	stream := make([]complex128, 150+len(wave)+50)
	copy(stream[150:], wave)
	n := rng.New(10)
	for i := range stream {
		stream[i] += n.ComplexNormal(1e-5)
	}
	frame, err := rx.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.FCSOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatal("frequency-selective gain broke decoding")
	}
}

// TestFrameSymbolsIntoReusesFrame: refilling one frame value with a long
// frame and then shorter ones at other rates gives the same symbols as
// fresh frames, reuses the symbol block, and Release empties the frame.
func TestFrameSymbolsIntoReusesFrame(t *testing.T) {
	tx := NewTX()
	s := rng.New(13)
	var f FrameSymbols
	var block *complex128
	for i, c := range []struct {
		size int
		mcs  MCS
	}{{1500, MCS0}, {300, MCS7}, {40, MCS3}, {1500, MCS0}} {
		payload := s.Bytes(make([]byte, c.size))
		if err := tx.FrameSymbolsInto(&f, payload, c.mcs); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			block = &f.bins[0]
		} else if &f.Symbol(0)[0] != block {
			t.Fatalf("frame %d: symbols left the reused block", i)
		}
		want, err := NewTX().FrameSymbols(payload, c.mcs)
		if err != nil {
			t.Fatal(err)
		}
		if f.MCS != want.MCS || f.PSDULen != want.PSDULen || f.NumSymbols() != want.NumSymbols() {
			t.Fatalf("frame %d: header %v/%d/%d, fresh %v/%d/%d", i, f.MCS, f.PSDULen, f.NumSymbols(),
				want.MCS, want.PSDULen, want.NumSymbols())
		}
		for k := range want.NumSymbols() {
			for b, v := range want.Symbol(k) {
				if f.Symbol(k)[b] != v {
					t.Fatalf("frame %d: symbol %d bin %d is %v reused, %v fresh", i, k, b, f.Symbol(k)[b], v)
				}
			}
		}
	}
	f.Release()
	if f.NumSymbols() != 0 {
		t.Fatalf("released frame still holds %d symbols", f.NumSymbols())
	}
}

func TestAirtimeAndSampleLen(t *testing.T) {
	tx := NewTX()
	f, err := tx.FrameSymbols(make([]byte, 100), MCS0)
	if err != nil {
		t.Fatal(err)
	}
	wave := synth(tx, f, nil)
	if len(wave) != f.SampleLen() {
		t.Fatalf("SampleLen %d != synthesized %d", f.SampleLen(), len(wave))
	}
	// (16+832+6)/24 = 36 symbols + SIGNAL.
	if f.NumSymbols() != 37 {
		t.Fatalf("NumSymbols = %d, want 37", f.NumSymbols())
	}
	wantAir := float64(f.SampleLen()) / 20e6
	if got := f.AirtimeSeconds(20e6); math.Abs(got-wantAir) > 1e-12 {
		t.Fatalf("airtime %v", got)
	}
}

func TestSubcarrierSNRPopulated(t *testing.T) {
	tx, rx := NewTX(), NewRX()
	s := rng.New(11)
	wave, _ := tx.Frame(s.Bytes(make([]byte, 800)), MCS2)
	stream := make([]complex128, 100+len(wave)+20)
	copy(stream[100:], wave)
	n := rng.New(12)
	for i := range stream {
		stream[i] += n.ComplexNormal(8e-3) // ≈20 dB
	}
	frame, err := rx.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame.SubcarrierSNR) != ofdm.NData {
		t.Fatalf("%d subcarrier SNRs", len(frame.SubcarrierSNR))
	}
	for i, snr := range frame.SubcarrierSNR {
		db := 10 * math.Log10(snr)
		if db < 5 || db > 45 {
			t.Fatalf("subcarrier %d SNR %v dB implausible for a 20 dB link", i, db)
		}
	}
}

func BenchmarkTXFrame1500B(b *testing.B) {
	tx := NewTX()
	payload := rng.New(1).Bytes(make([]byte, 1500))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Frame(payload, MCS7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRXDecode1500B(b *testing.B) {
	tx, rx := NewTX(), NewRX()
	payload := rng.New(1).Bytes(make([]byte, 1500))
	wave, _ := tx.Frame(payload, MCS7)
	stream := make([]complex128, 200+len(wave)+50)
	copy(stream[200:], wave)
	n := rng.New(2)
	for i := range stream {
		stream[i] += n.ComplexNormal(1e-4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Decode(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// synth synthesizes f into a destination longer than the frame, so the
// returned prefix's length is SynthesizeWithGainInto's own.
func synth(tx *TX, f *FrameSymbols, gain []complex128) []complex128 {
	return tx.SynthesizeWithGainInto(make([]complex128, f.SampleLen()+7), f, gain)
}
