package modulation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

func TestBitsPerSymbol(t *testing.T) {
	want := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6}
	for s, w := range want {
		if got := s.BitsPerSymbol(); got != w {
			t.Errorf("%v BitsPerSymbol = %d, want %d", s, got, w)
		}
	}
}

func TestMapRejectsRaggedInput(t *testing.T) {
	if _, err := Map(QAM16, []byte{1, 0, 1}); err == nil {
		t.Fatal("Map accepted non-multiple bit count")
	}
}

func TestMapHardDemapRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, s := range allSchemes {
		bits := make([]byte, 240*s.BitsPerSymbol()/s.BitsPerSymbol()*s.BitsPerSymbol())
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		syms, err := Map(s, bits)
		if err != nil {
			t.Fatal(err)
		}
		back, err := hardDemap(s, syms)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(bits) {
			t.Fatalf("%v: length %d != %d", s, len(back), len(bits))
		}
		for i := range bits {
			if bits[i] != back[i] {
				t.Fatalf("%v: bit %d flipped without noise", s, i)
			}
		}
	}
}

func TestUnitAveragePower(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, s := range allSchemes {
		n := 6000 * s.BitsPerSymbol()
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		syms, err := Map(s, bits)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for _, v := range syms {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		p /= float64(len(syms))
		if math.Abs(p-1) > 0.03 {
			t.Errorf("%v: average power %v, want 1", s, p)
		}
	}
}

func TestBPSKKnownPoints(t *testing.T) {
	syms, err := Map(BPSK, []byte{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if syms[0] != -1 || syms[1] != 1 {
		t.Fatalf("BPSK map = %v", syms)
	}
}

func TestQAM16GrayAdjacency(t *testing.T) {
	// Adjacent PAM levels must differ in exactly one bit (Gray property).
	for lv := 0; lv < 3; lv++ {
		a := grayBitsForLevel(lv, 2)
		b := grayBitsForLevel(lv+1, 2)
		diff := 0
		for i := range a {
			if a[i] != b[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("levels %d,%d differ in %d bits", lv, lv+1, diff)
		}
	}
}

func TestQAM64GrayAdjacency(t *testing.T) {
	for lv := 0; lv < 7; lv++ {
		a := grayBitsForLevel(lv, 3)
		b := grayBitsForLevel(lv+1, 3)
		diff := 0
		for i := range a {
			if a[i] != b[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("levels %d,%d differ in %d bits", lv, lv+1, diff)
		}
	}
}

func TestHardDemapWithSmallNoise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, s := range allSchemes {
		bits := make([]byte, 1200)
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		bits = bits[:len(bits)/s.BitsPerSymbol()*s.BitsPerSymbol()]
		syms, _ := Map(s, bits)
		// Noise well inside half the minimum constellation distance.
		for i := range syms {
			syms[i] += complex(r.NormFloat64()*0.02, r.NormFloat64()*0.02)
		}
		back, err := hardDemap(s, syms)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if bits[i] != back[i] {
				t.Fatalf("%v: flipped under tiny noise", s)
			}
		}
	}
}

func TestSoftDemapSignsMatchHardDecisions(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, s := range allSchemes {
		bits := make([]byte, 1200/s.BitsPerSymbol()*s.BitsPerSymbol())
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		syms, _ := Map(s, bits)
		llr := softDemapAll(s, syms, 0.01)
		if len(llr) != len(bits) {
			t.Fatalf("%v: %d LLRs for %d bits", s, len(llr), len(bits))
		}
		for i, b := range bits {
			// Positive LLR ⇒ bit 0; negative ⇒ bit 1.
			if b == 0 && llr[i] < 0 || b == 1 && llr[i] > 0 {
				t.Fatalf("%v: LLR sign disagrees with clean bit %d (llr %v, bit %d)", s, i, llr[i], b)
			}
		}
	}
}

func TestSoftDemapConfidenceScalesWithNoise(t *testing.T) {
	syms, _ := Map(QAM16, []byte{1, 0, 1, 1})
	lowNoise := softDemapAll(QAM16, syms, 0.01)
	highNoise := softDemapAll(QAM16, syms, 1.0)
	for i := range lowNoise {
		if math.Abs(lowNoise[i]) <= math.Abs(highNoise[i]) {
			t.Fatalf("LLR %d did not grow with SNR", i)
		}
	}
}

// Property: round trip holds for random bits across all schemes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, raw []byte) bool {
		r := rand.New(rand.NewSource(seed))
		s := allSchemes[r.Intn(len(allSchemes))]
		bits := make([]byte, len(raw)/s.BitsPerSymbol()*s.BitsPerSymbol())
		for i := range bits {
			bits[i] = raw[i] & 1
		}
		syms, err := Map(s, bits)
		if err != nil {
			return false
		}
		back, err := hardDemap(s, syms)
		if err != nil {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMapQAM64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, 6*48*100)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(QAM64, bits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftDemapQAM64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, 6*48*20)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	syms, _ := Map(QAM64, bits)
	llr := make([]float64, 0, len(bits))
	b.ReportAllocs()
	for b.Loop() {
		llr = llr[:0]
		for _, v := range syms {
			llr = AppendSoftDemap(llr, QAM64, v, 0.1)
		}
	}
}

func TestScalarPathsMatchSlicePaths(t *testing.T) {
	schemes := []Scheme{BPSK, QPSK, QAM16, QAM64}
	// A deterministic cloud of points covering every decision region plus
	// off-grid noise-like offsets.
	var pts []complex128
	for i := -9; i <= 9; i++ {
		for q := -9; q <= 9; q++ {
			pts = append(pts, complex(float64(i)*0.17, float64(q)*0.17))
		}
	}
	for _, s := range schemes {
		for _, v := range pts {
			hd, err := hardDemap(s, []complex128{v})
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := Map(s, hd)
			if err != nil {
				t.Fatal(err)
			}
			if sp := SlicePoint(s, v); sp != mapped[0] {
				t.Fatalf("%v SlicePoint(%v) = %v, want %v", s, v, sp, mapped[0])
			}
			for _, nv := range []float64{0.01, 0.3, 2} {
				soft := oracleSoftDemap(s, v, nv)
				gotSoft := AppendSoftDemap(nil, s, v, nv)
				if len(gotSoft) != len(soft) {
					t.Fatalf("%v AppendSoftDemap len %d want %d", s, len(gotSoft), len(soft))
				}
				for i := range soft {
					if gotSoft[i] != soft[i] {
						t.Fatalf("%v AppendSoftDemap(%v, nv=%v) = %v, want %v", s, v, nv, gotSoft, soft)
					}
				}
			}
		}
		// MapInto must agree with Map on every label.
		bps := s.BitsPerSymbol()
		nSyms := 1 << bps
		bits := make([]byte, 0, nSyms*bps)
		for lv := 0; lv < nSyms; lv++ {
			for b := bps - 1; b >= 0; b-- {
				bits = append(bits, byte(lv>>b)&1)
			}
		}
		want, err := Map(s, bits)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, len(want))
		if err := MapInto(got, s, bits); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v MapInto[%d] = %v, want %v", s, i, got[i], want[i])
			}
		}
	}
}

// softDemapAll demaps every symbol of syms with AppendSoftDemap.
func softDemapAll(s Scheme, syms []complex128, noiseVar float64) []float64 {
	var llr []float64
	for _, v := range syms {
		llr = AppendSoftDemap(llr, s, v, noiseVar)
	}
	return llr
}

// oraclePamLLR is the brute-force max-log demapper of one PAM axis: for
// each bit, the squared distance to every level, minimized per bit class
// with d < best from +Inf. appendPamLLR must match it bit for bit.
func oraclePamLLR(y float64, width int, nv float64) []float64 {
	nLevels := 1 << width
	llr := make([]float64, width)
	for b := 0; b < width; b++ {
		best0, best1 := math.Inf(1), math.Inf(1)
		for lv := 0; lv < nLevels; lv++ {
			bits := grayBitsForLevel(lv, width)
			x := float64(2*lv + 1 - nLevels)
			d := (y - x) * (y - x)
			if bits[b] == 0 {
				if d < best0 {
					best0 = d
				}
			} else if d < best1 {
				best1 = d
			}
		}
		llr[b] = (best1 - best0) / nv
	}
	return llr
}

// oracleSoftDemap is AppendSoftDemap for one symbol over oraclePamLLR.
func oracleSoftDemap(s Scheme, v complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-9
	}
	switch s {
	case BPSK:
		return []float64{-4 * real(v) / noiseVar}
	case QPSK:
		return []float64{-4 * real(v) / (sqrt2 * noiseVar), -4 * imag(v) / (sqrt2 * noiseVar)}
	case QAM16:
		return append(oraclePamLLR(real(v)*norm16, 2, noiseVar*10), oraclePamLLR(imag(v)*norm16, 2, noiseVar*10)...)
	case QAM64:
		return append(oraclePamLLR(real(v)*norm64, 3, noiseVar*42), oraclePamLLR(imag(v)*norm64, 3, noiseVar*42)...)
	}
	return nil
}

// demapInputs returns every level and decision boundary of the widest
// PAM axis and one ulp either side, ±0, ±Inf, NaN and ±1e300, then a
// million random y spread over the constellation, its edges and far
// outside it.
func demapInputs() []float64 {
	ys := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	for v := -8.0; v <= 8; v++ {
		ys = append(ys, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1_000_000; i++ {
		var y float64
		switch i % 4 {
		case 0:
			y = 20*r.Float64() - 10
		case 1:
			y = 3 * r.NormFloat64()
		case 2: // a level or boundary plus a few ulps of rounding
			y = float64(r.Intn(17)-8) + float64(r.Intn(9)-4)*0x1p-50
		default: // magnitudes from subnormal to near overflow
			y = math.Ldexp(r.Float64(), r.Intn(2100)-1075)
			if r.Intn(2) == 0 {
				y = -y
			}
		}
		ys = append(ys, y)
	}
	return ys
}

// TestPamLLRMatchesOracle holds appendPamLLR to the brute-force scan bit
// for bit at widths 1–3 over demapInputs.
func TestPamLLRMatchesOracle(t *testing.T) {
	const nv = 0.3
	var got []float64
	ys := demapInputs()
	for width := 1; width <= 3; width++ {
		for _, y := range ys {
			want := oraclePamLLR(y, width, nv)
			got = appendPamLLR(got[:0], y, width, nv)
			for b := range want {
				if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
					t.Fatalf("width %d y=%v (%#x): bit %d LLR %v, brute force %v", width, y, math.Float64bits(y), b, got[b], want[b])
				}
			}
		}
	}
}

// TestLevelsAtOrBelowIsExact checks the level count appendPamLLR picks its
// candidates by against a direct count over demapInputs, whose y one ulp
// below a level are where rounding lifts the lattice estimate onto the
// level.
func TestLevelsAtOrBelowIsExact(t *testing.T) {
	ys := demapInputs()
	for width := 1; width <= 3; width++ {
		for _, y := range ys {
			want := 0
			for lv := 0; lv < 1<<width; lv++ {
				if pamLevel(lv, width) <= y {
					want++
				}
			}
			if got := levelsAtOrBelow(y, width); got != want {
				t.Fatalf("width %d y=%v (%#x): %d levels at or below, want %d", width, y, math.Float64bits(y), got, want)
			}
		}
	}
}

func TestScalarDemapAllocFree(t *testing.T) {
	llr := make([]float64, 0, 64)
	n := testing.AllocsPerRun(200, func() {
		llr = AppendSoftDemap(llr[:0], QAM64, 0.3-0.2i, 0.1)
		_ = SlicePoint(QAM16, -0.4+0.9i)
	})
	if n > 0 {
		t.Errorf("scalar demap path allocates %.1f times per run", n)
	}
}

// pamGray maps b bits (MSB first) to a Gray-coded PAM level in
// {-(2^b - 1), ..., -1, 1, ..., 2^b - 1} by the 802.11 tables. It and
// perSymbolMap are the per-symbol mapper MapInto's table replaced, kept as
// its oracle.
func pamGray(bits []byte) float64 {
	switch len(bits) {
	case 1:
		return float64(2*int(bits[0]) - 1) // 0→-1, 1→+1
	case 2:
		// 802.11: 00→-3, 01→-1, 11→+1, 10→+3
		return [4]float64{-3, -1, 3, 1}[bits[0]<<1|bits[1]]
	case 3:
		// 802.11 64-QAM: 000→-7, 001→-5, 011→-3, 010→-1, 110→+1, 111→+3, 101→+5, 100→+7
		return [8]float64{-7, -5, -1, -3, 7, 5, 1, 3}[bits[0]<<2|bits[1]<<1|bits[2]]
	}
	panic("modulation: bad PAM width")
}

// perSymbolMap maps one symbol's bits, MSB first.
func perSymbolMap(s Scheme, chunk []byte) complex128 {
	switch s {
	case BPSK:
		return complex(pamGray(chunk[:1]), 0)
	case QPSK:
		return complex(pamGray(chunk[:1])/sqrt2, pamGray(chunk[1:])/sqrt2)
	case QAM16:
		return complex(pamGray(chunk[:2])/norm16, pamGray(chunk[2:])/norm16)
	case QAM64:
		return complex(pamGray(chunk[:3])/norm64, pamGray(chunk[3:])/norm64)
	}
	panic("modulation: bad scheme")
}

// TestMapIntoMatchesPerSymbol maps every label of every scheme, once with
// clean 0/1 bits and once with stray high bits set, and requires the
// per-symbol mapper's points bit for bit.
func TestMapIntoMatchesPerSymbol(t *testing.T) {
	for s := BPSK; s <= QAM64; s++ {
		bps := s.BitsPerSymbol()
		var bits, stray []byte
		var want []complex128
		for label := 0; label < 1<<bps; label++ {
			chunk := make([]byte, bps)
			for b := range chunk {
				chunk[b] = byte(label>>(bps-1-b)) & 1
				stray = append(stray, chunk[b]|byte(label+b)<<1)
			}
			bits = append(bits, chunk...)
			want = append(want, perSymbolMap(s, chunk))
		}
		for name, in := range map[string][]byte{"clean": bits, "stray high bits": stray} {
			got := make([]complex128, len(want))
			if err := MapInto(got, s, in); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%v %s label %d: MapInto = %v, per-symbol mapper %v", s, name, i, got[i], want[i])
				}
			}
		}
	}
}

// hardDemap slices symbols back to bits by nearest constellation point,
// the oracle the Map and SoftDemap tests check against. It errors on an
// invalid scheme.
func hardDemap(s Scheme, syms []complex128) ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("modulation: unknown scheme %v", s)
	}
	bps := s.BitsPerSymbol()
	out := make([]byte, 0, len(syms)*bps)
	for _, v := range syms {
		switch s {
		case BPSK:
			out = append(out, pamDeGray(real(v), 1)...)
		case QPSK:
			out = append(out, pamDeGray(real(v)*sqrt2, 1)...)
			out = append(out, pamDeGray(imag(v)*sqrt2, 1)...)
		case QAM16:
			out = append(out, pamDeGray(real(v)*norm16, 2)...)
			out = append(out, pamDeGray(imag(v)*norm16, 2)...)
		case QAM64:
			out = append(out, pamDeGray(real(v)*norm64, 3)...)
			out = append(out, pamDeGray(imag(v)*norm64, 3)...)
		}
	}
	return out, nil
}
