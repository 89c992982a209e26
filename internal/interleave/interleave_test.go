package interleave

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The four 802.11a symbol sizes: (Ncbps, Nbpsc).
var configs = [][2]int{{48, 1}, {96, 2}, {192, 4}, {288, 6}}

func TestRoundTripAllConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, cfg := range configs {
		it := MustNew(cfg[0], cfg[1])
		bits := make([]byte, cfg[0])
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		inter, err := interleave(it, bits)
		if err != nil {
			t.Fatal(err)
		}
		back := deinterleave(it, inter)
		for i := range bits {
			if back[i] != bits[i] {
				t.Fatalf("cfg %v: round trip failed at %d", cfg, i)
			}
		}
	}
}

func TestPermutationIsBijective(t *testing.T) {
	for _, cfg := range configs {
		it := MustNew(cfg[0], cfg[1])
		seen := make([]bool, cfg[0])
		for _, p := range it.perm {
			if p < 0 || p >= cfg[0] || seen[p] {
				t.Fatalf("cfg %v: not a permutation", cfg)
			}
			seen[p] = true
		}
	}
}

func TestAdjacentBitsSeparated(t *testing.T) {
	// The point of the interleaver: adjacent coded bits must land on
	// well-separated positions (different subcarriers).
	it := MustNew(192, 4) // 16-QAM symbol
	for k := 0; k+1 < 192; k++ {
		d := it.perm[k] - it.perm[k+1]
		if d < 0 {
			d = -d
		}
		// Same subcarrier means |Δposition| < 4.
		if d < 4 {
			t.Fatalf("bits %d and %d land within one subcarrier (Δ=%d)", k, k+1, d)
		}
	}
}

func TestKnownFirstPermutationEntries(t *testing.T) {
	// For BPSK (Ncbps=48, s=1): perm[k] = 3*(k mod 16) + floor(k/16).
	it := MustNew(48, 1)
	for k := 0; k < 48; k++ {
		want := 3*(k%16) + k/16
		if it.perm[k] != want {
			t.Fatalf("perm[%d] = %d, want %d", k, it.perm[k], want)
		}
	}
}

func TestBadParameters(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("accepted ncbps=0")
	}
	if _, err := New(50, 4); err == nil {
		t.Fatal("accepted ncbps not divisible by nbpsc")
	}
	if _, err := New(24, 1); err == nil {
		t.Fatal("accepted ncbps not multiple of 16")
	}
}

func TestBlockSizeValidation(t *testing.T) {
	it := MustNew(48, 1)
	if _, err := interleave(it, make([]byte, 47)); err == nil {
		t.Fatal("accepted short block")
	}
	if err := it.DeinterleaveLLRInto(make([]float64, 49), make([]float64, 48)); err == nil {
		t.Fatal("accepted long destination")
	}
	if _, err := deinterleaveLLR(it, make([]float64, 1)); err == nil {
		t.Fatal("accepted short LLR block")
	}
}

func TestDeinterleaveLLRMatchesBits(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	it := MustNew(288, 6)
	bits := make([]byte, 288)
	llr := make([]float64, 288)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	inter, _ := interleave(it, bits)
	for i, b := range inter {
		if b == 0 {
			llr[i] = 1
		} else {
			llr[i] = -1
		}
	}
	dl, err := deinterleaveLLR(it, llr)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if b == 0 && dl[i] != 1 || b == 1 && dl[i] != -1 {
			t.Fatalf("LLR deinterleave mismatch at %d", i)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, cfgIdx uint8) bool {
		cfg := configs[int(cfgIdx)%len(configs)]
		it := MustNew(cfg[0], cfg[1])
		bits := make([]byte, cfg[0])
		for i := range bits {
			if len(raw) > 0 {
				bits[i] = raw[i%len(raw)] & 1
			}
		}
		inter, err := interleave(it, bits)
		if err != nil {
			return false
		}
		back := deinterleave(it, inter)
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// interleave and deinterleaveLLR run the Into forms into fresh blocks.
func interleave(it *Interleaver, bits []byte) ([]byte, error) {
	out := make([]byte, it.ncbps)
	return out, it.InterleaveInto(out, bits)
}

func deinterleaveLLR(it *Interleaver, llr []float64) ([]float64, error) {
	out := make([]float64, it.ncbps)
	return out, it.DeinterleaveLLRInto(out, llr)
}

// deinterleave inverts the permutation on one block of bits, the oracle
// for DeinterleaveLLRInto.
func deinterleave(it *Interleaver, bits []byte) []byte {
	out := make([]byte, len(bits))
	for j, b := range bits {
		out[it.inv[j]] = b
	}
	return out
}
