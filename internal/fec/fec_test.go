package fec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var allRates = []Rate{Rate12, Rate23, Rate34}

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, rate := range allRates {
		for _, n := range []int{1, 7, 48, 100, 333} {
			data := randBits(r, n)
			if got, want := len(Encode(data, rate)), EncodedLen(n, rate); got != want {
				t.Fatalf("rate %s n=%d: Encode len %d, EncodedLen %d", rate, n, got, want)
			}
		}
	}
}

// twoPassEncode is the reference encoder AppendEncode replaced: the whole
// mother code first, then a puncturing pass over it.
func twoPassEncode(data []byte, rate Rate) []byte {
	pat := rate.pattern()
	var mother []byte
	state := 0
	for i := 0; i < len(data)+constraintLen-1; i++ {
		var bit byte
		if i < len(data) {
			bit = data[i] & 1
		}
		out := outputs[state][bit]
		mother = append(mother, out>>1, out&1)
		state = (state >> 1) | (int(bit) << (constraintLen - 2))
	}
	var out []byte
	for i, b := range mother {
		if pat[i%len(pat)] {
			out = append(out, b)
		}
	}
	return out
}

// TestAppendEncodeMatchesTwoPass holds the table-driven AppendEncode to
// the two-pass encoder at every rate: every length up to 64 bits on bytes
// with stray high bits, random lengths up to 600 bits with and without a
// prefix in dst, and a 12000-bit frame.
func TestAppendEncodeMatchesTwoPass(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	prefix := []byte{1, 0, 1}
	for _, rate := range allRates {
		for n := 0; n <= 64; n++ {
			for trial := 0; trial < 20; trial++ {
				data := make([]byte, n)
				r.Read(data)
				if got, want := AppendEncode(nil, data, rate), twoPassEncode(data, rate); !slices.Equal(got, want) {
					t.Fatalf("rate %s n=%d: AppendEncode differs from the two-pass encoder on %v", rate, n, data)
				}
			}
		}
		for trial := 0; trial < 200; trial++ {
			data := randBits(r, r.Intn(600))
			want := twoPassEncode(data, rate)
			if got := AppendEncode(nil, data, rate); !slices.Equal(got, want) {
				t.Fatalf("rate %s n=%d: AppendEncode differs from the two-pass encoder", rate, len(data))
			}
			got := AppendEncode(slices.Clone(prefix), data, rate)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("rate %s n=%d: AppendEncode clobbered or misplaced its prefix", rate, len(data))
			}
		}
		data := randBits(r, 12000)
		if got, want := AppendEncode(nil, data, rate), twoPassEncode(data, rate); !slices.Equal(got, want) {
			t.Fatalf("rate %s n=12000: AppendEncode differs from the two-pass encoder", rate)
		}
	}
}

// TestEncodeTableMatchesTwoPass checks every encodeTable entry: the six
// inputs that lead into state, then the byte, through the two-pass encoder
// at rate 1/2 (nothing punctured) must give the entry's 16 mother-code
// bits, and the encoder must then be in state x>>2.
func TestEncodeTableMatchesTwoPass(t *testing.T) {
	for state := 0; state < numStates; state++ {
		for x := 0; x < 256; x++ {
			var in []byte
			for i := 0; i < constraintLen-1; i++ { // state's oldest input first
				in = append(in, byte(state>>i&1))
			}
			for i := 0; i < 8; i++ {
				in = append(in, byte(x>>i&1))
			}
			mother := twoPassEncode(in, Rate12)[2*(constraintLen-1):]
			w := encodeTable[state][x]
			for j := 0; j < 16; j++ {
				if byte(w>>j)&1 != mother[j] {
					t.Fatalf("state %d byte %#x: mother bit %d is %d, the two-pass encoder gives %d", state, x, j, w>>j&1, mother[j])
				}
			}
			next := 0
			for _, b := range in[len(in)-(constraintLen-1):] {
				next = next>>1 | int(b)<<(constraintLen-2)
			}
			if next != x>>2 {
				t.Fatalf("state %d byte %#x: ends in state %d, not %d", state, x, next, x>>2)
			}
		}
	}
}

func TestEncodedLenMatchesLoop(t *testing.T) {
	for _, rate := range allRates {
		pat := rate.pattern()
		for n := 0; n <= 10000; n++ {
			want := 0
			for i := 0; i < 2*(n+constraintLen-1); i++ {
				if pat[i%len(pat)] {
					want++
				}
			}
			if got := EncodedLen(n, rate); got != want {
				t.Fatalf("rate %s n=%d: EncodedLen %d, loop counts %d", rate, n, got, want)
			}
		}
	}
}

func TestAppendEncodePresizedAllocatesNothing(t *testing.T) {
	data := randBits(rand.New(rand.NewSource(4)), 8*1504)
	buf := make([]byte, 0, EncodedLen(len(data), Rate34))
	if n := testing.AllocsPerRun(10, func() { AppendEncode(buf[:0], data, Rate34) }); n != 0 {
		t.Fatalf("AppendEncode into a presized slice allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(10, func() { Encode(data, Rate34) }); n != 1 {
		t.Fatalf("Encode allocates %.0f times, want 1", n)
	}
}

func TestRateFraction(t *testing.T) {
	// Coded length should approach n/rate for large n.
	n := 3000
	for _, rate := range allRates {
		got := float64(EncodedLen(n, rate))
		want := float64(n) / rate.Fraction()
		if got < want || got > want+24 {
			t.Fatalf("rate %s: coded len %v for %d bits (expected ≈%v)", rate, got, n, want)
		}
	}
}

func TestNoiselessRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, rate := range allRates {
		for _, n := range []int{1, 2, 10, 96, 500} {
			data := randBits(r, n)
			coded := Encode(data, rate)
			dec, err := decodeHard(coded, n, rate)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				if dec[i] != data[i] {
					t.Fatalf("rate %s n=%d: bit %d wrong", rate, n, i)
				}
			}
		}
	}
}

func TestKnownEncoderOutput(t *testing.T) {
	// First input bit 1 from zero state: register = 1000000 (input in MSB);
	// A = parity(reg & 133o), B = parity(reg & 171o). 133o=1011011b,
	// 171o=1111001b; both have the MSB set, so output is 11.
	coded := Encode([]byte{1}, Rate12)
	if coded[0] != 1 || coded[1] != 1 {
		t.Fatalf("first coded pair = %d%d, want 11", coded[0], coded[1])
	}
	// All-zero input must give all-zero output.
	for i, b := range Encode(make([]byte, 20), Rate12) {
		if b != 0 {
			t.Fatalf("zero input produced 1 at %d", i)
		}
	}
}

func TestHardDecodingCorrectsBitErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 400
	data := randBits(r, n)
	coded := Encode(data, Rate12)
	// Flip ~2% of coded bits, spread out (free distance 10 corrects dense
	// errors poorly, sparse well).
	for i := 0; i < len(coded); i += 53 {
		coded[i] ^= 1
	}
	dec, err := decodeHard(coded, n, Rate12)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range data {
		if dec[i] != data[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Fatalf("%d residual errors after sparse flips", errs)
	}
}

func TestSoftBeatsHardAtModerateNoise(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 300
	trials := 40
	hardErrs, softErrs := 0, 0
	sigma := 0.95 // BPSK noise sd at ~0.4 dB Eb/N0: plenty of raw errors
	for trial := 0; trial < trials; trial++ {
		data := randBits(r, n)
		coded := Encode(data, Rate12)
		rx := make([]float64, len(coded)) // received BPSK: 0→+1, 1→-1
		for i, b := range coded {
			v := 1.0
			if b == 1 {
				v = -1.0
			}
			rx[i] = v + sigma*r.NormFloat64()
		}
		hard := make([]byte, len(coded))
		soft := make([]float64, len(coded))
		for i, v := range rx {
			if v < 0 {
				hard[i] = 1
			}
			soft[i] = 2 * v / (sigma * sigma)
		}
		hd, err := decodeHard(hard, n, Rate12)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := DecodeSoft(soft, n, Rate12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if hd[i] != data[i] {
				hardErrs++
			}
			if sd[i] != data[i] {
				softErrs++
			}
		}
	}
	if softErrs >= hardErrs {
		t.Fatalf("soft decoding (%d errors) not better than hard (%d)", softErrs, hardErrs)
	}
}

func TestPuncturedRatesDecodeUnderLightNoise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 300
	for _, rate := range []Rate{Rate23, Rate34} {
		data := randBits(r, n)
		coded := Encode(data, rate)
		llr := make([]float64, len(coded))
		for i, b := range coded {
			v := 1.0
			if b == 1 {
				v = -1.0
			}
			llr[i] = 4 * (v + 0.45*r.NormFloat64())
		}
		dec, err := DecodeSoft(llr, n, rate)
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for i := range data {
			if dec[i] != data[i] {
				errs++
			}
		}
		if errs > 0 {
			t.Fatalf("rate %s: %d errors under light noise", rate, errs)
		}
	}
}

func TestDecodeLengthValidation(t *testing.T) {
	if _, err := DecodeSoft(make([]float64, 10), 100, Rate12); err == nil {
		t.Fatal("no error for wrong coded length")
	}
}

// Property: encode/decode is the identity without noise for random inputs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, rateIdx uint8) bool {
		if len(raw) == 0 {
			return true
		}
		rate := allRates[int(rateIdx)%len(allRates)]
		data := make([]byte, len(raw))
		for i := range raw {
			data[i] = raw[i] & 1
		}
		dec, err := decodeHard(Encode(data, rate), len(data), rate)
		if err != nil {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// codewordLLRs maps coded bits to LLRs of the matching sign whose
// magnitudes come from mag.
func codewordLLRs(coded []byte, mag func() float64) []float64 {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		llr[i] = mag()
		if b == 1 {
			llr[i] = -llr[i]
		}
	}
	return llr
}

// trellisDecode decodes through the full trellis, bypassing cleanPath.
func trellisDecode(llr []float64, n int, rate Rate) []byte {
	bits := make([]byte, n)
	trellis(bits, llr, rate)
	return bits
}

// shortcut reports whether cleanPath certifies llr as an n-bit frame.
func shortcut(llr []float64, n int, rate Rate) bool {
	return cleanPath(make([]byte, n), llr, rate)
}

// perBitCleanPath is the bit-serial cleanPath its state table replaced,
// kept as its oracle: it re-derives each input bit from the generator
// outputs of the state so far and the hard decision of each kept LLR.
func perBitCleanPath(dst []byte, llr []float64, rate Rate) bool {
	total := len(dst) + constraintLen - 1
	pat := rate.pattern()
	minAbs, sum := math.Inf(1), 0.0
	state, src, p := 0, 0, 0
	for step := 0; step < total; step++ {
		out := outputs[state][0] // input 1 flips both bits
		in := byte(2)            // not yet decided
		for k := 1; k >= 0; k-- {
			kept := pat[p]
			p = (p + 1) % len(pat)
			if !kept {
				continue
			}
			l := llr[src]
			src++
			a := math.Abs(l)
			if !(a > 0 && a <= math.MaxFloat64) {
				return false
			}
			minAbs, sum = min(minAbs, a), sum+a
			b := out >> k & 1 // the input bit this coded bit implies
			if l < 0 {
				b ^= 1
			}
			if in != 2 && in != b {
				return false
			}
			in = b
		}
		if step < len(dst) {
			dst[step] = in
		}
		state = state>>1 | int(in)<<(constraintLen-2)
	}
	ku := float64(total+1) * 0x1p-53
	return state == 0 && sum <= unreachable && minAbs > 2*ku/(1-ku)*sum
}

// TestCleanPathMatchesPerBit holds cleanPath to the bit-serial oracle on
// every rate and every whole-frame LLR family, clean frames included: the
// same verdict, and on a certified frame the same bits.
func TestCleanPathMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	families := append(trellisFamilies(r),
		trellisFamily{"clean", func(c []byte) []float64 { return codewordLLRs(c, func() float64 { return 0.25 + 4*r.Float64() }) }},
		trellisFamily{"clean-one-flip", func(c []byte) []float64 {
			llr := codewordLLRs(c, func() float64 { return 1 })
			i := r.Intn(len(llr))
			llr[i] = -llr[i]
			return llr
		}},
		// Two magnitudes of the order of the certificate's bound, so the
		// verdict turns on tracking the exact minimum.
		trellisFamily{"two-near-bound", func(c []byte) []float64 {
			llr := codewordLLRs(c, func() float64 { return 1 })
			bound := 2 * float64(len(c)) * 0x1p-53 * float64(len(c))
			for range 2 {
				i := r.Intn(len(llr))
				llr[i] *= bound * (0.25 + 2*r.Float64())
			}
			return llr
		}})
	for _, f := range families {
		for _, rate := range allRates {
			certified := 0
			for frame := 0; frame < 200; frame++ {
				n := r.Intn(300)
				llr := f.llr(Encode(randBits(r, n), rate))
				got, want := make([]byte, n), make([]byte, n)
				ok := cleanPath(got, llr, rate)
				if wantOK := perBitCleanPath(want, llr, rate); ok != wantOK {
					t.Fatalf("%s rate %s frame %d (n=%d): cleanPath says %v, the per-bit oracle %v", f.name, rate, frame, n, ok, wantOK)
				}
				if ok {
					certified++
					if string(got) != string(want) {
						t.Fatalf("%s rate %s frame %d (n=%d): cleanPath certifies other bits than the per-bit oracle", f.name, rate, frame, n)
					}
				}
			}
			if f.name == "clean" && certified == 0 {
				t.Errorf("rate %s: no clean frame was certified", rate)
			}
		}
	}
}

// TestDecodeSoftMatchesTrellis pins the clean-frame shortcut to the
// trellis bit for bit: whatever inputs cleanPath certifies, the trellis
// decodes to the same bits. The LLR families cover clean and noisy
// frames, quantized tie-prone LLRs, magnitudes near underflow and near
// the unreachable-state metric, and isolated tiny LLRs that a long
// frame's rounding error could swallow.
func TestDecodeSoftMatchesTrellis(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	uniform := func() float64 { return 0.25 + 4*r.Float64() }
	quantized := func() float64 { return float64(1 + r.Intn(3)) }
	families := []struct {
		name  string
		llr   func(coded []byte) []float64
		clean bool // expected to take the shortcut at least sometimes
	}{
		{"clean", func(c []byte) []float64 { return codewordLLRs(c, uniform) }, true},
		{"quantized", func(c []byte) []float64 { return codewordLLRs(c, quantized) }, true},
		{"quantized-noisy", func(c []byte) []float64 {
			llr := codewordLLRs(c, quantized)
			for i := range llr {
				switch r.Intn(20) {
				case 0:
					llr[i] = -llr[i]
				case 1:
					llr[i] = 0
				}
			}
			return llr
		}, false},
		{"gaussian", func(c []byte) []float64 {
			llr := codewordLLRs(c, func() float64 { return 1 })
			for i := range llr {
				llr[i] = 4 * (llr[i] + 0.6*r.NormFloat64())
			}
			return llr
		}, true},
		{"scaled-1e-300", func(c []byte) []float64 {
			return codewordLLRs(c, func() float64 { return 1e-300 * uniform() })
		}, true},
		{"subnormal", func(c []byte) []float64 {
			return codewordLLRs(c, func() float64 { return 1e-310 * uniform() })
		}, true},
		{"scaled-1e305", func(c []byte) []float64 {
			return codewordLLRs(c, func() float64 { return 1e305 * uniform() })
		}, false},
		{"isolated-1e-12", func(c []byte) []float64 {
			llr := codewordLLRs(c, uniform)
			llr[r.Intn(len(llr))] *= 1e-12
			return llr
		}, false},
	}
	var dec Decoder
	for _, rate := range allRates {
		for _, f := range families {
			fired := 0
			const frames = 500
			for i := 0; i < frames; i++ {
				n := 1 + r.Intn(200)
				llr := f.llr(Encode(randBits(r, n), rate))
				want := trellisDecode(llr, n, rate)
				got, err := dec.DecodeSoft(llr, n, rate)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("rate %s %s frame %d (n=%d): DecodeSoft differs from the trellis", rate, f.name, i, n)
				}
				if shortcut(llr, n, rate) {
					fired++
				}
			}
			if f.clean && fired == 0 {
				t.Errorf("rate %s %s: the shortcut never fired in %d frames", rate, f.name, frames)
			}
		}
	}
}

// TestCleanShortcutFires shows that a noiseless frame skips the trellis
// and that each broken certificate condition sends the frame back to it.
func TestCleanShortcutFires(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const n = 400
	for _, rate := range allRates {
		data := randBits(r, n)
		clean := codewordLLRs(Encode(data, rate), func() float64 { return 1 + r.Float64() })
		var dec Decoder
		if !shortcut(clean, n, rate) {
			t.Fatalf("rate %s: a noiseless frame did not take the shortcut", rate)
		}
		got, err := dec.DecodeSoft(clean, n, rate)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data) {
			t.Fatalf("rate %s: the shortcut returned the wrong bits", rate)
		}
		// A codeword whose trellis does not end in state 0: encode past
		// the frame and keep only its first n+6 steps.
		tail := append(append([]byte(nil), data...), 1, 0, 1, 1, 0, 1)
		open := codewordLLRs(Encode(tail, rate)[:len(clean)], func() float64 { return 1 })
		at := len(clean) / 2
		for name, llr := range map[string][]float64{
			"flipped sign":         withLLR(clean, at, -clean[at]),
			"zero LLR":             withLLR(clean, at, 0),
			"NaN":                  withLLR(clean, at, math.NaN()),
			"Inf":                  withLLR(clean, at, math.Inf(1)),
			"non-zero tail":        open,
			"tiny LLR":             withLLR(clean, at, 1e-15),
			"sum past unreachable": scaled(clean, 1e305),
		} {
			if shortcut(llr, n, rate) {
				t.Errorf("rate %s %s: took the shortcut", rate, name)
			}
			got, err := dec.DecodeSoft(llr, n, rate)
			if err != nil {
				t.Fatal(err)
			}
			if want := trellisDecode(llr, n, rate); string(got) != string(want) {
				t.Errorf("rate %s %s: DecodeSoft differs from the trellis", rate, name)
			}
		}
	}
}

// acsSpecials are the metric and branch-metric values the add-compare-
// select must treat bit for bit alike in Go and assembly: signed zeros,
// infinities, subnormals, values at and around the unreachable-state
// metric, and small integers whose sums tie.
var acsSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, -1e-310, math.SmallestNonzeroFloat64 * 3,
	unreachable, -unreachable, unreachable * 2, math.Nextafter(unreachable, 0),
	math.MaxFloat64, -math.MaxFloat64, 1e308, -1e308,
	1, -1, 2, -2, 3, -3,
}

// acsValue draws from acsSpecials, quantized integers or a Gaussian.
func acsValue(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return acsSpecials[r.Intn(len(acsSpecials))]
	case 1:
		return float64(r.Intn(9) - 4)
	}
	return 10 * r.NormFloat64()
}

// TestACSStepMatchesGo holds every kernel the host can run, given a
// one-step chunk, to the Go acsStep: the same new metric bits and the same
// survivor word, on random metrics and LLRs that mix every special value.
// ±Inf LLRs among them make infinite branch metrics, and NaN ones where
// they meet (Inf−Inf).
func TestACSStepMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var ab [2 * chunkSteps]float64
	for trial := 0; trial < 20000; trial++ {
		var mp, np [numStates]float64
		for s := range mp {
			mp[s] = acsValue(r)
		}
		la, lb := acsValue(r), acsValue(r)
		ab[0], ab[1] = la, lb
		bm := [4]float64{-la - lb, -la + lb, la - lb, la + lb}
		want := acsStep(&mp, &np, &bm)
		for _, k := range hostKernels() {
			m := mp
			var got [1]uint64
			acsChunk(k, &m, got[:], &ab)
			if got[0] != want {
				t.Fatalf("trial %d: %s kernel survivors %#x, Go step %#x (mp %v, la %v, lb %v)", trial, kernelNames[k], got[0], want, mp, la, lb)
			}
			for s := range np {
				if math.Float64bits(m[s]) != math.Float64bits(np[s]) {
					t.Fatalf("trial %d: %s kernel state %d metric %v (%#x), Go step %v (%#x)", trial, kernelNames[k], s,
						m[s], math.Float64bits(m[s]), np[s], math.Float64bits(np[s]))
				}
			}
		}
	}
}

// trellisFamily is a named LLR generator for whole-frame trellis tests.
type trellisFamily struct {
	name string
	llr  func(coded []byte) []float64
}

// trellisFamilies are the clean, noisy and tie-prone frames
// TestDecodeSoftMatchesTrellis uses, plus signed zeros, infinities,
// subnormals and magnitudes near overflow sprinkled into a noisy frame.
func trellisFamilies(r *rand.Rand) []trellisFamily {
	gaussian := func(c []byte) []float64 {
		llr := codewordLLRs(c, func() float64 { return 1 })
		for i := range llr {
			llr[i] = 4 * (llr[i] + 0.6*r.NormFloat64())
		}
		return llr
	}
	sprinkle := func(vals ...float64) func(c []byte) []float64 {
		return func(c []byte) []float64 {
			llr := gaussian(c)
			for i := range llr {
				if r.Intn(8) == 0 {
					llr[i] = vals[r.Intn(len(vals))]
				}
			}
			return llr
		}
	}
	return []trellisFamily{
		{"gaussian", gaussian},
		{"quantized", func(c []byte) []float64 {
			llr := codewordLLRs(c, func() float64 { return float64(1 + r.Intn(3)) })
			for i := range llr {
				switch r.Intn(10) {
				case 0:
					llr[i] = -llr[i]
				case 1:
					llr[i] = 0
				}
			}
			return llr
		}},
		{"signed-zero", sprinkle(0, math.Copysign(0, -1))},
		{"infinite", sprinkle(math.Inf(1), math.Inf(-1))},
		{"subnormal", sprinkle(5e-324, -5e-324, 1e-310, -1e-310)},
		{"huge", sprinkle(1e308, -1e308, math.MaxFloat64, -math.MaxFloat64)},
		{"mixed", sprinkle(acsSpecials...)},
	}
}

// TestTrellisKernelMatchesGoStep decodes whole frames through the trellis
// with every kernel the host can run and through trellisWith with the Go
// acsStep, at every rate and over every LLR family, and requires the same
// bits. One frame in ten is long enough to cross chunk boundaries.
func TestTrellisKernelMatchesGoStep(t *testing.T) {
	for _, k := range hostKernels() {
		withKernel(t, k)
		r := rand.New(rand.NewSource(22))
		for _, f := range trellisFamilies(r) {
			for _, rate := range allRates {
				for frame := 0; frame < 100; frame++ {
					n := 1 + r.Intn(300)
					if frame%10 == 0 {
						n = 1 + r.Intn(4*chunkSteps)
					}
					llr := f.llr(Encode(randBits(r, n), rate))
					want := make([]byte, n)
					trellisWith(want, llr, rate, acsStep)
					got := make([]byte, n)
					trellis(got, llr, rate)
					if string(got) != string(want) {
						t.Fatalf("%s rate %s frame %d (n=%d): the %s kernel's trellis differs from the Go step's", f.name, rate, frame, n, kernelNames[k])
					}
				}
			}
		}
	}
}

// TestNaNLLRDecodesAsErasure shows a NaN LLR, whatever its sign and
// payload, decodes exactly like a zero LLR (a punctured bit) under both
// ACS steps.
func TestNaNLLRDecodesAsErasure(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	nans := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
	}
	for _, rate := range allRates {
		for frame := 0; frame < 200; frame++ {
			n := 1 + r.Intn(300)
			llr := codewordLLRs(Encode(randBits(r, n), rate), func() float64 { return 1 })
			for i := range llr {
				llr[i] = 4 * (llr[i] + 0.8*r.NormFloat64())
			}
			erased := slices.Clone(llr)
			for k := 0; k < 1+len(llr)/10; k++ {
				i := r.Intn(len(llr))
				llr[i], erased[i] = nans[r.Intn(len(nans))], 0
			}
			want := trellisDecode(erased, n, rate)
			got, err := DecodeSoft(llr, n, rate)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("rate %s frame %d (n=%d): NaN LLRs decode unlike zeros", rate, frame, n)
			}
			goStep := make([]byte, n)
			trellisWith(goStep, llr, rate, acsStep)
			if string(goStep) != string(want) {
				t.Fatalf("rate %s frame %d (n=%d): NaN LLRs decode unlike zeros under the Go step", rate, frame, n)
			}
		}
	}
}

func withLLR(llr []float64, i int, v float64) []float64 {
	out := append([]float64(nil), llr...)
	out[i] = v
	return out
}

func scaled(llr []float64, k float64) []float64 {
	out := append([]float64(nil), llr...)
	for i := range out {
		out[i] *= k
	}
	return out
}

// BenchmarkEncode1500ByteFrame encodes a 1500 B frame at each rate into
// a presized buffer.
func BenchmarkEncode1500ByteFrame(b *testing.B) {
	data := randBits(rand.New(rand.NewSource(1)), 8*1500)
	for i, rate := range allRates {
		b.Run([]string{"rate12", "rate23", "rate34"}[i], func(b *testing.B) {
			buf := make([]byte, 0, EncodedLen(len(data), rate))
			for b.Loop() {
				AppendEncode(buf[:0], data, rate)
			}
		})
	}
}

// BenchmarkViterbi1500ByteFrame decodes a noiseless 1500 B frame. Its ±1
// LLRs are ones cleanPath certifies, so it times the clean-frame shortcut
// and never the trellis; BenchmarkTrellis1500ByteFrame times the trellis.
func BenchmarkViterbi1500ByteFrame(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 1500 * 8
	data := randBits(r, n)
	coded := Encode(data, Rate34)
	llr := make([]float64, len(coded))
	for i, bit := range coded {
		if bit == 0 {
			llr[i] = 1
		} else {
			llr[i] = -1
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSoft(llr, n, Rate34); err != nil {
			b.Fatal(err)
		}
	}
}

// noisy1500ByteFrame returns the LLRs of a noisy rate-3/4 1500 B frame
// and its bit count; cleanPath cannot certify it, so every decode runs
// the trellis.
func noisy1500ByteFrame(b *testing.B) ([]float64, int) {
	r := rand.New(rand.NewSource(1))
	n := 1500 * 8
	llr := codewordLLRs(Encode(randBits(r, n), Rate34), func() float64 { return 1 })
	for i := range llr {
		llr[i] = 4 * (llr[i] + 0.6*r.NormFloat64())
	}
	if shortcut(llr, n, Rate34) {
		b.Fatal("the noisy frame takes the clean-frame shortcut")
	}
	return llr, n
}

// BenchmarkTrellis1500ByteFrame decodes a noisy 1500 B frame through the
// trellis with the kernel the CPU dispatches.
func BenchmarkTrellis1500ByteFrame(b *testing.B) {
	llr, n := noisy1500ByteFrame(b)
	dst := make([]byte, n)
	b.ReportAllocs()
	for b.Loop() {
		if err := DecodeSoftInto(dst, llr, Rate34); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkTrellisKernel is BenchmarkTrellis1500ByteFrame with kernel k,
// skipped where the CPU cannot run it.
func benchmarkTrellisKernel(b *testing.B, k kernel) {
	if !slices.Contains(hostKernels(), k) {
		b.Skipf("the CPU cannot run the %s kernel", kernelNames[k])
	}
	withKernel(b, k)
	llr, n := noisy1500ByteFrame(b)
	dst := make([]byte, n)
	for b.Loop() {
		trellis(dst, llr, Rate34)
	}
}

func BenchmarkTrellisAVX512Kernel1500ByteFrame(b *testing.B) {
	benchmarkTrellisKernel(b, avx512Kernel)
}

func BenchmarkTrellisAVX2Kernel1500ByteFrame(b *testing.B) {
	benchmarkTrellisKernel(b, avx2Kernel)
}

func BenchmarkTrellisGoKernel1500ByteFrame(b *testing.B) {
	benchmarkTrellisKernel(b, goKernel)
}

// decodeHard is the hard-decision decoder the tests hold DecodeSoft
// against: each coded bit becomes a ±1 LLR (positive = bit 0).
func decodeHard(coded []byte, n int, rate Rate) ([]byte, error) {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		if b&1 == 0 {
			llr[i] = 1
		} else {
			llr[i] = -1
		}
	}
	return DecodeSoft(llr, n, rate)
}
