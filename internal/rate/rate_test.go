package rate

import (
	"math"
	"megamimo/internal/units"
	"testing"

	"megamimo/internal/cmplxs"
	"megamimo/internal/modulation"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
)

func TestQFunction(t *testing.T) {
	if got := Q(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %v", got)
	}
	// Q(1.2816) ≈ 0.1.
	if got := Q(1.2816); math.Abs(got-0.1) > 1e-3 {
		t.Fatalf("Q(1.2816) = %v", got)
	}
	if Q(10) > 1e-20 {
		t.Fatal("Q(10) too large")
	}
}

func TestInvQRoundTrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.1, 1e-3, 1e-6, 1e-9} {
		x := invQ(p)
		if math.Abs(Q(x)-p)/p > 1e-6 {
			t.Fatalf("Q(invQ(%v)) = %v", p, Q(x))
		}
	}
	if invQ(0.6) != 0 {
		t.Fatal("invQ above 0.5 should clamp to 0")
	}
}

func TestBERMonotonicity(t *testing.T) {
	schemes := []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16, modulation.QAM64}
	for _, s := range schemes {
		prev := 1.0
		for db := -5.0; db <= 35; db += 1 {
			b := BER(s, cmplxs.FromDB(units.Decibels(db)))
			if b > prev+1e-15 {
				t.Fatalf("%v BER not monotone at %v dB", s, db)
			}
			prev = b
		}
	}
	// Higher-order modulations are worse at the same SNR.
	g := cmplxs.FromDB(12)
	if !(BER(modulation.BPSK, g) < BER(modulation.QPSK, g) &&
		BER(modulation.QPSK, g) < BER(modulation.QAM16, g) &&
		BER(modulation.QAM16, g) < BER(modulation.QAM64, g)) {
		t.Fatal("BER ordering across schemes violated")
	}
}

func TestInvBERRoundTrip(t *testing.T) {
	schemes := []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16, modulation.QAM64}
	for _, s := range schemes {
		for _, db := range []float64{3, 10, 20, 28} {
			g := cmplxs.FromDB(units.Decibels(db))
			b := BER(s, g)
			if b <= 0 || b >= 0.5 {
				continue
			}
			back := invBER(s, b)
			if math.Abs(10*math.Log10(back)-db) > 0.01 {
				t.Fatalf("%v: invBER(BER(%v dB)) = %v dB", s, db, 10*math.Log10(back))
			}
		}
	}
}

func TestEffectiveSNRFlatChannelIsIdentity(t *testing.T) {
	for _, db := range []float64{5, 12, 20} {
		sub := make([]float64, 48)
		for i := range sub {
			sub[i] = cmplxs.FromDB(units.Decibels(db))
		}
		got := EffectiveSNRdB(sub, modulation.QPSK)
		if math.Abs(got-db) > 0.05 {
			t.Fatalf("flat %v dB → effective %v dB", db, got)
		}
	}
}

func TestEffectiveSNRPenalizesFades(t *testing.T) {
	// 47 subcarriers at 20 dB, one in a deep fade: effective SNR must drop
	// far below the dB-average.
	sub := make([]float64, 48)
	for i := range sub {
		sub[i] = cmplxs.FromDB(20)
	}
	sub[7] = cmplxs.FromDB(-5)
	eff := EffectiveSNRdB(sub, modulation.QAM16)
	if eff > 16 {
		t.Fatalf("effective SNR %v dB ignores the fade", eff)
	}
	dbAvg := (47*20.0 - 5.0) / 48
	if eff >= dbAvg {
		t.Fatalf("effective %v ≥ dB-average %v", eff, dbAvg)
	}
}

func TestSelectLadder(t *testing.T) {
	// Sweep SNR: the selected MCS must be non-decreasing and hit both ends.
	last := phy.MCS0
	sawNone := false
	for db := -2.0; db <= 30; db += 0.5 {
		mcs, ok := SelectFlat(units.Decibels(db))
		if !ok {
			sawNone = true
			continue
		}
		if mcs < last {
			t.Fatalf("MCS ladder not monotone at %v dB: %v after %v", db, mcs, last)
		}
		last = mcs
	}
	if !sawNone {
		t.Fatal("very low SNR should select nothing")
	}
	if last != phy.MCS7 {
		t.Fatalf("30 dB tops out at %v", last)
	}
}

// TestThresholdsAgainstRealPHY cross-validates the lookup table against
// this repository's own PHY: at threshold+1.5 dB each MCS must decode
// nearly always; at threshold−3 dB it must fail most of the time.
func TestThresholdsAgainstRealPHY(t *testing.T) {
	if testing.Short() {
		t.Skip("PHY sweep")
	}
	tx, rx := phy.NewTX(), phy.NewRX()
	src := rng.New(42)
	run := func(m phy.MCS, snrDB float64, trials int) float64 {
		payload := src.Bytes(make([]byte, 200))
		wave, err := tx.Frame(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		// Occupied-carrier sample power of the synthesized waveform.
		var p float64
		for _, v := range wave[320:] {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		p /= float64(len(wave) - 320)
		nv := p / cmplxs.FromDB(units.Decibels(snrDB))
		okCount := 0
		for tr := 0; tr < trials; tr++ {
			stream := make([]complex128, 100+len(wave)+20)
			copy(stream[100:], wave)
			n := src.Split(uint64(int(m)*1000 + tr))
			for i := range stream {
				stream[i] += n.ComplexNormal(nv)
			}
			f, err := rx.Decode(stream)
			if err == nil && f.FCSOK {
				okCount++
			}
		}
		return float64(okCount) / float64(trials)
	}
	for m := phy.MCS0; m < phy.NumMCS; m++ {
		above := run(m, Thresholds[m]+1.5, 10)
		below := run(m, Thresholds[m]-3, 10)
		if above < 0.8 {
			t.Errorf("%v: delivery %.0f%% at threshold+1.5 dB", m, 100*above)
		}
		if below > 0.4 {
			t.Errorf("%v: delivery %.0f%% at threshold−3 dB", m, 100*below)
		}
	}
}

func TestThroughputAccounting(t *testing.T) {
	// 1500 B at MCS7, 20 MHz: 56 data symbols + SIGNAL + preamble
	// = (320+80·57)/20e6 s for 12000 payload bits.
	got := ThroughputAtMCS(phy.MCS7, 1500, 20e6)
	nsym := (16 + 8*1504 + 6 + 215) / 216
	want := 12000.0 / (float64(320+80*(1+nsym)) / 20e6)
	if math.Abs(got-want) > 1 {
		t.Fatalf("throughput %v, want %v", got, want)
	}
	// Must be below the raw PHY rate.
	if got >= phy.MCS7.BitRate(20e6) {
		t.Fatal("goodput exceeds PHY rate")
	}
}

func TestSelectMatchesPaper80211Anchors(t *testing.T) {
	// §11.2: 802.11 at high SNR (>18 dB) ≈ 23.6 Mb/s on the 10 MHz
	// testbed, medium ≈ 14.9, low ≈ 7.75. Check the selector lands on the
	// MCS tiers that produce those numbers (±30%).
	anchors := []struct {
		snrDB float64
		mbps  float64
	}{{22, 23.6}, {15.5, 14.9}, {9.5, 7.75}}
	for _, a := range anchors {
		mcs, ok := SelectFlat(units.Decibels(a.snrDB))
		if !ok {
			t.Fatalf("nothing selected at %v dB", a.snrDB)
		}
		got := ThroughputAtMCS(mcs, 1500, 10e6) / 1e6
		if got < 0.7*a.mbps || got > 1.3*a.mbps {
			t.Errorf("at %v dB: %v → %.1f Mb/s, paper anchor %.1f", a.snrDB, mcs, got, a.mbps)
		}
	}
}
