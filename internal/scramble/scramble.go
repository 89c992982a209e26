// Package scramble implements the 802.11 length-127 frame-synchronous
// scrambler (polynomial x^7 + x^4 + 1). Scrambling whitens the data so the
// OFDM waveform has no pathological peak-to-average patterns; it is its own
// inverse for a given initial state.
package scramble

import "encoding/binary"

// Scrambler is the 7-bit LFSR state machine.
type Scrambler struct {
	state byte // 7-bit state, never zero
}

// period is the length of the LFSR's cycle through its 127 non-zero states.
const period = 127

var (
	// states[k] is the state k steps after the all-ones seed, and at[s]
	// is the position of state s in states.
	states [period]byte
	at     [128]uint8
	// seq[k] is the bit the step from states[k mod period] emits; the 7
	// entries past the period let Apply read 8 bits from any position.
	seq [period + 7]byte
)

func init() {
	s := byte(0x7f)
	for k := range states {
		states[k], at[s] = s, uint8(k)
		// Feedback: x^7 + x^4 + 1 → bit = s[6] ^ s[3] (0-indexed from LSB).
		b := ((s >> 6) ^ (s >> 3)) & 1
		s = ((s << 1) | b) & 0x7f
	}
	for k := range seq {
		seq[k] = states[(k+1)%period] & 1 // each step shifts its bit in
	}
}

// New returns a scrambler with the given 7-bit initial state; state 0 is
// remapped to the conventional all-ones seed because a zero LFSR never
// leaves zero.
func New(state byte) *Scrambler {
	state &= 0x7f
	if state == 0 {
		state = 0x7f
	}
	return &Scrambler{state: state}
}

// Apply XORs the scrambler sequence onto bits in place (only the low bit
// of each byte counts) and returns bits. Calling Apply twice with
// scramblers in the same initial state restores the original data. It
// reads the sequence from the precomputed cycle, 8 bits at a time.
func (s *Scrambler) Apply(bits []byte) []byte {
	k := int(at[s.state])
	i := 0
	for ; i+8 <= len(bits); i += 8 {
		x := binary.LittleEndian.Uint64(bits[i:])&0x0101010101010101 ^ binary.LittleEndian.Uint64(seq[k:])
		binary.LittleEndian.PutUint64(bits[i:], x)
		if k += 8; k >= period {
			k -= period
		}
	}
	for ; i < len(bits); i++ {
		bits[i] = bits[i]&1 ^ seq[k]
		if k++; k == period {
			k = 0
		}
	}
	s.state = states[k]
	return bits
}

// Sequence returns the first n scrambler bits without consuming shared
// state (it operates on a copy).
func (s *Scrambler) Sequence(n int) []byte {
	cp := *s
	return cp.Apply(make([]byte, n))
}
