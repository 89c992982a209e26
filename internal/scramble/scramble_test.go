package scramble

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelfInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(r.Intn(2))
	}
	orig := append([]byte(nil), data...)
	New(0x5d).Apply(data)
	New(0x5d).Apply(data)
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("double scramble not identity at %d", i)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	s := New(0)
	seq := s.Sequence(127)
	allZero := true
	for _, b := range seq {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced stuck-at-zero sequence")
	}
}

func TestPeriod127(t *testing.T) {
	s := New(0x7f)
	seq := s.Sequence(254)
	for i := 0; i < 127; i++ {
		if seq[i] != seq[i+127] {
			t.Fatalf("sequence not periodic with 127 at %d", i)
		}
	}
	// And no shorter period that divides 127 exists (127 prime: only 1);
	// check it is not constant.
	if seq[0] == seq[1] && seq[1] == seq[2] && seq[2] == seq[3] && seq[3] == seq[4] && seq[4] == seq[5] && seq[5] == seq[6] && seq[6] == seq[7] {
		t.Fatal("suspiciously constant start")
	}
}

func TestKnownSequenceAllOnesSeed(t *testing.T) {
	// 802.11-1999 Annex G: with all-ones seed the first bits of the
	// scrambling sequence are 00001110 11110010 11001001.
	want := []byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1}
	got := New(0x7f).Sequence(len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestBalancedSequence(t *testing.T) {
	// Maximal-length sequence has 64 ones and 63 zeros per period.
	seq := New(0x2a).Sequence(127)
	ones := 0
	for _, b := range seq {
		ones += int(b)
	}
	if ones != 64 {
		t.Fatalf("ones per period = %d, want 64", ones)
	}
}

func TestSequenceDoesNotAdvanceState(t *testing.T) {
	s := New(0x11)
	a := s.Sequence(10)
	b := s.Sequence(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sequence consumed state")
		}
	}
}

func TestQuickSelfInverseAnySeed(t *testing.T) {
	f := func(seed byte, raw []byte) bool {
		data := make([]byte, len(raw))
		for i := range raw {
			data[i] = raw[i] & 1
		}
		orig := append([]byte(nil), data...)
		New(seed).Apply(data)
		New(seed).Apply(data)
		for i := range data {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// perBitApply is the bit-serial scrambler Apply's table replaced, kept as
// its oracle: it scrambles bits in place from state and returns the state
// it ends in.
func perBitApply(state byte, bits []byte) byte {
	for i := range bits {
		b := ((state >> 6) ^ (state >> 3)) & 1
		state = ((state << 1) | b) & 0x7f
		bits[i] = (bits[i] & 1) ^ b
	}
	return state
}

// TestApplyMatchesPerBit holds Apply to the bit-serial LFSR from every
// non-zero state over every length up to a little past two periods, on
// bytes with stray high bits: the same output and the same final state.
func TestApplyMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for state := byte(1); state < 128; state++ {
		for n := 0; n <= 2*period+20; n++ {
			data := make([]byte, n)
			r.Read(data)
			want := append([]byte(nil), data...)
			wantState := perBitApply(state, want)
			s := New(state)
			if got := s.Apply(data); string(got) != string(want) {
				t.Fatalf("state %#x n=%d: Apply differs from the per-bit LFSR", state, n)
			}
			if s.state != wantState {
				t.Fatalf("state %#x n=%d: Apply ends in state %#x, the per-bit LFSR in %#x", state, n, s.state, wantState)
			}
		}
	}
}

func BenchmarkApply1500Bytes(b *testing.B) {
	bits := make([]byte, 8*1500)
	for b.Loop() {
		New(0x5d).Apply(bits)
	}
}
