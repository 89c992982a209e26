package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
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
	freq := make([]complex128, NFFT)
	if err := dem.FreqInto(freq, sym); err != nil {
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
	rx := s.AddComplexNormal(make([]complex128, 2000), 1)
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

// arrayDetect is the array-based detector Detect replaced: it builds the
// lag-16 autocorrelation and the 80-sample moving energy average over the
// whole stream, then searches them. It is the oracle Detect's streaming
// plateau search must match bit for bit.
func arrayDetect(rx []complex128, threshold float64) (*Sync, error) {
	if len(rx) < PreambleLen+SymbolLen {
		return nil, ErrNoPacket
	}
	const win = 64
	auto := autoCorrelateLag(rx, STFPeriod, win)
	if auto == nil {
		return nil, ErrNoPacket
	}
	energy := make([]float64, len(rx))
	for i, v := range rx {
		energy[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	eAvg := movingAverage(energy, win+STFPeriod)
	coarse, best := -1, 0.0
	metric := func(i int) float64 {
		e := eAvg[i] * float64(win+STFPeriod)
		if e <= 0 {
			return 0
		}
		return cmplx.Abs(auto[i]) / (e * float64(win) / float64(win+STFPeriod))
	}
	limit := min(len(auto), len(eAvg))
	for i := 0; i < limit; i++ {
		m := metric(i)
		if m <= threshold {
			continue
		}
		best, coarse = m, i
		for j := i + 1; j < limit && j < i+STFLen; j++ {
			if mj := metric(j); mj > best {
				best, coarse = mj, j
			}
		}
		break
	}
	if coarse < 0 {
		return nil, ErrNoPacket
	}
	coarseCFO := units.RadPerSample(-cmplx.Phase(auto[coarse]) / float64(STFPeriod))
	ltfRef := LTF()[LTFGuard : LTFGuard+NFFT]
	searchLo := coarse
	searchHi := coarse + STFLen + LTFGuard + 3*NFFT
	if searchHi+NFFT > len(rx) {
		searchHi = len(rx) - NFFT
	}
	if searchHi <= searchLo {
		return nil, ErrNoPacket
	}
	win2 := slices.Clone(rx[searchLo:min(searchHi+NFFT, len(rx))])
	cmplxs.Rotate(win2, win2, 0, -coarseCFO)
	xc := dsp.CrossCorrelateInto(make([]complex128, len(win2)-len(ltfRef)+1), win2, ltfRef)
	bestPos, bestVal := -1, 0.0
	for i := 0; i+NFFT < len(xc); i++ {
		v := cmplx.Abs(xc[i]) + cmplx.Abs(xc[i+NFFT])
		if v > bestVal {
			bestVal, bestPos = v, i
		}
	}
	if bestPos < 0 {
		return nil, ErrNoPacket
	}
	ltf1 := searchLo + bestPos
	payload := ltf1 + 2*NFFT
	if payload+SymbolLen > len(rx) {
		return nil, ErrNoPacket
	}
	var acc complex128
	for i := 0; i < NFFT; i++ {
		acc += rx[ltf1+i] * cmplx.Conj(rx[ltf1+NFFT+i])
	}
	fineCFO := units.RadPerSample(-cmplx.Phase(acc) / float64(NFFT))
	k := math.Round(units.Ratio(units.PhaseAdvance(coarseCFO-fineCFO, NFFT), 2*math.Pi))
	cfo := fineCFO + units.RadiansOver(units.Radians(2*math.Pi*k), NFFT)
	return &Sync{PayloadStart: payload, CFO: cfo, LTFStart: ltf1 - LTFGuard, Metric: best}, nil
}

// autoCorrelateLag returns a[k] = Σ_{i=k..k+win-1} x[i]·conj(x[i+lag]) for
// each window start k, as a sliding sum.
func autoCorrelateLag(x []complex128, lag, win int) []complex128 {
	if lag <= 0 || win <= 0 || len(x) < lag+win {
		return nil
	}
	out := make([]complex128, len(x)-lag-win+1)
	var acc complex128
	for i := 0; i < win; i++ {
		acc += x[i] * cmplx.Conj(x[i+lag])
	}
	out[0] = acc
	for k := 1; k < len(out); k++ {
		acc -= x[k-1] * cmplx.Conj(x[k-1+lag])
		acc += x[k+win-1] * cmplx.Conj(x[k+win-1+lag])
		out[k] = acc
	}
	return out
}

// movingAverage returns the win-point moving average of x as a sliding
// sum (length len(x)-win+1).
func movingAverage(x []float64, win int) []float64 {
	if win <= 0 || len(x) < win {
		return nil
	}
	out := make([]float64, len(x)-win+1)
	var acc float64
	for i := 0; i < win; i++ {
		acc += x[i]
	}
	out[0] = acc / float64(win)
	for k := 1; k < len(out); k++ {
		acc += x[k+win-1] - x[k-1]
		out[k] = acc / float64(win)
	}
	return out
}

// TestDetectMatchesArrayOracle pins the streaming plateau search to the
// array-based detector: the same *Sync, bit for bit, and the same error
// on noise, packets at random offsets, plateaus found within one STF
// length of the stream's end, zero-energy prefixes and NaN samples.
func TestDetectMatchesArrayOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	noise := rng.New(14)
	withPacket := func(n, off int, cfo units.RadPerSample, nv float64) []complex128 {
		frame, _ := buildFrame(r, 1+r.Intn(3))
		rx := make([]complex128, n)
		copy(rx[min(off, n):], frame)
		cmplxs.Rotate(rx, rx, units.Radians(r.Float64()), cfo)
		for i := range rx {
			rx[i] += noise.ComplexNormal(nv)
		}
		return rx
	}
	type stream struct {
		name string
		rx   []complex128
	}
	var streams []stream
	for i := 0; i < 60; i++ {
		n := 300 + r.Intn(2000)
		streams = append(streams, stream{"noise", noise.AddComplexNormal(make([]complex128, n), 1)})
		off := r.Intn(1000)
		cfo := units.RadPerSample(0.04 * (r.Float64() - 0.5))
		nv := []float64{0, 1e-3, 0.1, 1}[r.Intn(4)]
		streams = append(streams, stream{"packet", withPacket(off+800+r.Intn(400), off, cfo, nv)})
		// The STF starts less than one STF length before the last
		// autocorrelation window, so the plateau scan runs off the end.
		n = 600 + r.Intn(600)
		streams = append(streams, stream{"plateau at end", withPacket(n, n-80-r.Intn(STFLen), cfo, nv)})
		rx := withPacket(off+800, off, cfo, nv)
		clear(rx[:off])
		streams = append(streams, stream{"zero prefix", rx})
		rx = withPacket(off+800, off, cfo, nv)
		rx[r.Intn(len(rx))] = complex(math.NaN(), 0)
		streams = append(streams, stream{"NaN sample", rx})
	}
	streams = append(streams,
		stream{"all zero", make([]complex128, 1000)},
		stream{"too short", withPacket(PreambleLen+SymbolLen-1, 0, 0, 0)},
		stream{"shortest", withPacket(PreambleLen+SymbolLen, 0, 0, 0)})
	same := func(a, b *Sync) bool {
		if a == nil || b == nil {
			return a == b
		}
		return a.PayloadStart == b.PayloadStart && a.LTFStart == b.LTFStart &&
			math.Float64bits(float64(a.CFO)) == math.Float64bits(float64(b.CFO)) &&
			math.Float64bits(a.Metric) == math.Float64bits(b.Metric)
	}
	found := map[string]int{}
	for _, th := range []float64{0.2, 0.5, 0.9} {
		for i, s := range streams {
			got, err := Detect(s.rx, th)
			want, wantErr := arrayDetect(s.rx, th)
			if err != wantErr || !same(got, want) {
				t.Fatalf("threshold %v stream %d (%s): Detect = %+v, %v; oracle = %+v, %v",
					th, i, s.name, got, err, want, wantErr)
			}
			if err == nil {
				found[s.name]++
			}
		}
	}
	// Every family with a packet in it must exercise the success path.
	for _, name := range []string{"packet", "zero prefix", "NaN sample", "shortest"} {
		if found[name] == 0 {
			t.Errorf("no %q stream was detected; the oracle comparison only saw errors", name)
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

// TestReceiveFrontEndAllocations pins the acquisition path's allocations:
// Detect keeps its fine-timing window and cross-correlation on the stack
// and allocates only the *Sync it returns; EstimateChannelLTF allocates
// only the returned estimate.
func TestReceiveFrontEndAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	frame, _ := buildFrame(r, 4)
	src := rng.New(12)
	rx := make([]complex128, 250+len(frame)+80)
	copy(rx[250:], frame)
	cmplxs.Rotate(rx, rx, 0.4, 0.002)
	for i := range rx {
		rx[i] += src.ComplexNormal(1e-3)
	}
	sync, err := Detect(rx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = Detect(rx, 0.5) }); n > 1 {
		t.Errorf("Detect allocates %.0f times, want at most 1 (the *Sync)", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = EstimateChannelLTF(rx, sync) }); n > 1 {
		t.Errorf("EstimateChannelLTF allocates %.0f times, want at most 1 (the estimate)", n)
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
	payload := slices.Clone(rx[sync.PayloadStart:])
	cmplxs.Rotate(payload, payload, units.PhaseAdvance(-sync.CFO, units.Samples(sync.PayloadStart)), -sync.CFO)
	freq := make([]complex128, NFFT)
	for sidx := 0; sidx < nsym; sidx++ {
		if err := dem.FreqInto(freq, payload[sidx*SymbolLen:]); err != nil {
			t.Fatal(err)
		}
		got, err := equalize(eq, freq)
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
