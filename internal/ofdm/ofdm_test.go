package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func randQPSK(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	s := 1 / math.Sqrt2
	for i := range out {
		out[i] = complex(s*float64(2*r.Intn(2)-1), s*float64(2*r.Intn(2)-1))
	}
	return out
}

func TestDataCarrierLayout(t *testing.T) {
	if len(DataCarriers) != 48 {
		t.Fatalf("%d data carriers", len(DataCarriers))
	}
	seen := map[int]bool{}
	for _, k := range DataCarriers {
		if k == 0 || k < -26 || k > 26 {
			t.Fatalf("bad data carrier %d", k)
		}
		for _, p := range PilotCarriers {
			if k == p {
				t.Fatalf("data carrier %d collides with pilot", k)
			}
		}
		if seen[k] {
			t.Fatalf("duplicate carrier %d", k)
		}
		seen[k] = true
	}
}

func TestBinMapping(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 26: 26, -1: 63, -26: 38, -32: 32}
	for k, want := range cases {
		if got := Bin(k); got != want {
			t.Errorf("Bin(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestPilotPolarityFirstValues(t *testing.T) {
	// First scrambler bits with all-ones seed: 0,0,0,0,1,1,1,0 → +1 ×4, −1 ×3, +1.
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1}
	for i, w := range want {
		if got := PilotPolarity(i); got != w {
			t.Fatalf("PilotPolarity(%d) = %v, want %v", i, got, w)
		}
	}
	if PilotPolarity(127) != PilotPolarity(0) {
		t.Fatal("pilot polarity not 127-periodic")
	}
}

func TestSymbolRoundTripCleanChannel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mod := NewModulator()
	dem := NewDemodulator()
	data := randQPSK(r, NData)
	sym, err := mod.Symbol(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sym) != SymbolLen {
		t.Fatalf("symbol length %d", len(sym))
	}
	freq, err := dem.Freq(sym)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range DataCarriers {
		if got := freq[Bin(k)]; cmplx.Abs(got-data[i]) > 1e-9 {
			t.Fatalf("data subcarrier %d: %v != %v", i, got, data[i])
		}
	}
	ref := PilotReference(0)
	for i, k := range PilotCarriers {
		if got := freq[Bin(k)]; cmplx.Abs(got-ref[i]) > 1e-9 {
			t.Fatalf("pilot %d: %v != %v", i, got, ref[i])
		}
	}
}

func TestCyclicPrefixIsCopyOfTail(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	mod := NewModulator()
	sym, _ := mod.Symbol(randQPSK(r, NData), 3)
	for i := 0; i < CPLen; i++ {
		if sym[i] != sym[NFFT+i] {
			t.Fatalf("CP sample %d is not a copy", i)
		}
	}
}

func TestSTFPeriodicity(t *testing.T) {
	stf := STF()
	if len(stf) != STFLen {
		t.Fatalf("STF length %d", len(stf))
	}
	for i := 0; i+STFPeriod < len(stf); i++ {
		if cmplx.Abs(stf[i]-stf[i+STFPeriod]) > 1e-9 {
			t.Fatalf("STF not 16-periodic at %d", i)
		}
	}
}

func TestLTFStructure(t *testing.T) {
	ltf := LTF()
	if len(ltf) != LTFLen {
		t.Fatalf("LTF length %d", len(ltf))
	}
	// Two identical long symbols.
	for i := 0; i < NFFT; i++ {
		if cmplx.Abs(ltf[LTFGuard+i]-ltf[LTFGuard+NFFT+i]) > 1e-9 {
			t.Fatalf("LTF symbols differ at %d", i)
		}
	}
	// Guard is the tail of the long symbol.
	for i := 0; i < LTFGuard; i++ {
		if cmplx.Abs(ltf[i]-ltf[LTFGuard+NFFT-LTFGuard+i]) > 1e-9 {
			t.Fatalf("LTF guard wrong at %d", i)
		}
	}
}

func TestLTFFreqHas52Tones(t *testing.T) {
	n := 0
	for _, v := range LTFFreq() {
		if v != 0 {
			if v != 1 && v != -1 {
				t.Fatalf("LTF tone %v not ±1", v)
			}
			n++
		}
	}
	if n != 52 {
		t.Fatalf("%d occupied LTF tones, want 52", n)
	}
}

// buildFrame concatenates preamble + nsym data symbols, returns samples and
// the per-symbol data.
func buildFrame(r *rand.Rand, nsym int) ([]complex128, [][]complex128) {
	mod := NewModulator()
	samples := append([]complex128(nil), Preamble()...)
	var data [][]complex128
	for s := 0; s < nsym; s++ {
		d := randQPSK(r, NData)
		data = append(data, d)
		sym, err := mod.Symbol(d, s)
		if err != nil {
			panic(err)
		}
		samples = append(samples, sym...)
	}
	return samples, data
}

func TestDetectCleanPacketAtKnownOffset(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	frame, _ := buildFrame(r, 2)
	pad := 300
	rx := make([]complex128, pad+len(frame)+100)
	copy(rx[pad:], frame)
	sync, err := Detect(rx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sync.PayloadStart != pad+PreambleLen {
		t.Fatalf("payload start %d, want %d", sync.PayloadStart, pad+PreambleLen)
	}
	if units.Abs(sync.CFO) > 1e-4 {
		t.Fatalf("phantom CFO %v", sync.CFO)
	}
}

func TestDetectRejectsNoise(t *testing.T) {
	s := rng.New(4)
	rx := s.ComplexNormalVec(make([]complex128, 2000), 1)
	if _, err := Detect(rx, 0.8); err == nil {
		t.Fatal("detected a packet in pure noise")
	}
}

func TestDetectEstimatesCFO(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, cfo := range []units.RadPerSample{0.002, -0.005, 0.02} {
		frame, _ := buildFrame(r, 2)
		pad := 123
		rx := make([]complex128, pad+len(frame)+50)
		copy(rx[pad:], frame)
		cmplxs.Rotate(rx, rx, 0.3, cfo)
		// Light noise.
		s := rng.New(6)
		for i := range rx {
			rx[i] += s.ComplexNormal(1e-4)
		}
		sync, err := Detect(rx, 0.5)
		if err != nil {
			t.Fatalf("cfo %v: %v", cfo, err)
		}
		if units.Abs(sync.CFO-cfo) > 2e-4 {
			t.Fatalf("cfo estimate %v, want %v", sync.CFO, cfo)
		}
	}
}

func TestDetectWithNoiseAndDelayRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := rng.New(8)
	for _, pad := range []int{64, 500, 1111} {
		frame, _ := buildFrame(r, 3)
		rx := make([]complex128, pad+len(frame)+64)
		copy(rx[pad:], frame)
		for i := range rx {
			rx[i] += s.ComplexNormal(0.01) // 20 dB SNR
		}
		sync, err := Detect(rx, 0.5)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		if d := sync.PayloadStart - (pad + PreambleLen); d < -1 || d > 1 {
			t.Fatalf("pad %d: payload start off by %d", pad, d)
		}
	}
}

func TestChannelEstimateFlatChannel(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	frame, _ := buildFrame(r, 1)
	gain := 0.7 - 0.4i
	rx := make([]complex128, 200+len(frame))
	for i, v := range frame {
		rx[200+i] = v * gain
	}
	sync, err := Detect(rx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := EstimateChannelLTF(rx, sync)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range OccupiedCarriers() {
		if cmplx.Abs(h[Bin(k)]-gain) > 1e-6 {
			t.Fatalf("h[%d] = %v, want %v", k, h[Bin(k)], gain)
		}
	}
}

func TestChannelEstimateMultipath(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	frame, _ := buildFrame(r, 1)
	taps := []complex128{0.8, 0, 0.3i, -0.1}
	conv := dsp.Convolve(frame, taps)
	rx := make([]complex128, 150+len(conv)+50)
	copy(rx[150:], conv)
	sync, err := Detect(rx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := EstimateChannelLTF(rx, sync)
	if err != nil {
		t.Fatal(err)
	}
	// Expected frequency response of the taps (within a timing-offset
	// phase ramp that Detect may introduce; compare magnitudes).
	ref := make([]complex128, NFFT)
	copy(ref, taps)
	H := dsp.FFT(ref)
	// Tolerance covers the estimator's deliberate cross-bin smoothing bias.
	for _, k := range OccupiedCarriers() {
		if math.Abs(cmplx.Abs(h[Bin(k)])-cmplx.Abs(H[Bin(k)])) > 0.06 {
			t.Fatalf("|h[%d]| = %v, want %v", k, cmplx.Abs(h[Bin(k)]), cmplx.Abs(H[Bin(k)]))
		}
	}
}

func TestEqualizerRecoversDataThroughChannelAndCFO(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nsym := 6
	frame, data := buildFrame(r, nsym)
	taps := []complex128{0.9, 0.2 - 0.1i}
	conv := dsp.Convolve(frame, taps)
	rx := make([]complex128, 100+len(conv)+10)
	copy(rx[100:], conv)
	cfo := units.RadPerSample(0.001)
	cmplxs.Rotate(rx, rx, 0.1, cfo)
	noise := rng.New(12)
	for i := range rx {
		rx[i] += noise.ComplexNormal(1e-4)
	}

	sync, err := Detect(rx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := EstimateChannelLTF(rx, sync)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := NewEqualizer(h)
	if err != nil {
		t.Fatal(err)
	}
	dem := NewDemodulator()
	// Derotate payload using estimated CFO, referenced like the channel
	// estimate (phase 0 at each symbol handled by pilot tracking).
	payload := cmplxs.Clone(rx[sync.PayloadStart:])
	cmplxs.Rotate(payload, payload, units.PhaseAdvance(-sync.CFO, units.Samples(sync.PayloadStart)), -sync.CFO)
	for sidx := 0; sidx < nsym; sidx++ {
		freq, err := dem.Freq(payload[sidx*SymbolLen:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := eq.Symbol(freq)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-data[sidx][i]) > 0.2 {
				t.Fatalf("symbol %d subcarrier %d: %v vs %v", sidx, i, got[i], data[sidx][i])
			}
		}
	}
}

func BenchmarkModulatorSymbol(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	mod := NewModulator()
	data := randQPSK(r, NData)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Symbol(data, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	frame, _ := buildFrame(r, 4)
	rx := make([]complex128, 400+len(frame))
	copy(rx[400:], frame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(rx, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
