// Package fec implements 802.11's forward error correction: the rate-1/2
// constraint-length-7 convolutional code (generators 133/171 octal), the
// standard puncturing patterns for rates 2/3 and 3/4, and a Viterbi decoder
// that accepts either hard bits or soft log-likelihood ratios.
package fec

import (
	"encoding/binary"
	"fmt"
	"math"

	"megamimo/internal/dsp"
)

// Rate is a coding rate.
type Rate int

const (
	Rate12 Rate = iota // 1/2
	Rate23             // 2/3
	Rate34             // 3/4
)

// String returns "1/2" etc.
func (r Rate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	}
	return fmt.Sprintf("Rate(%d)", int(r))
}

// Fraction returns the numeric coding rate.
func (r Rate) Fraction() float64 {
	switch r {
	case Rate12:
		return 0.5
	case Rate23:
		return 2.0 / 3.0
	case Rate34:
		return 0.75
	}
	panic("fec: unknown rate")
}

// puncture patterns over the mother-code output stream (pairs A,B per input
// bit): true = transmit, false = puncture. Patterns follow 802.11-1999 §17.
// Each has even length, so an input bit's A and B always fall in one
// period. The tables are shared and read-only.
func (r Rate) pattern() []bool {
	switch r {
	case Rate12:
		return pattern12
	case Rate23:
		return pattern23
	case Rate34:
		return pattern34
	}
	panic("fec: unknown rate")
}

var (
	pattern12 = []bool{true, true}
	// A1 B1 A2 (B2 punctured), period 2 input bits.
	pattern23 = []bool{true, true, true, false}
	// A1 B1 A2 (B2) (A3) B3, period 3 input bits.
	pattern34 = []bool{true, true, true, false, false, true}
)

const (
	constraintLen = 7
	numStates     = 1 << (constraintLen - 1) // 64
	genA          = 0o133
	genB          = 0o171
)

// outputs[state][input] packs the two mother-code output bits (A<<1 | B).
var outputs [numStates][2]byte

// Butterfly branch tables: the two predecessors of next state ns are
// p0 = (ns<<1)&63 and p1 = p0|1, both consumed with input bit ns>>5.
// Because both generators tap the oldest register bit and the input bit,
// outputs[p][1] = outputs[p][0]^3 and outputs[p0|1][in] = outputs[p0][in]^3,
// so one table of outputs[2j][0] per butterfly pair j covers all four
// branches by sign flips of the branch metric.
var branchIdx [numStates / 2]byte // outputs[2j][0] for butterfly pair j

// encodeTable[state][x] holds the 16 mother-code bits the encoder emits
// from state for the 8 input bits of x, input i in bit i of x: A of input
// i in bit 2i, B in bit 2i+1. The state after them is x>>2, the last six
// inputs.
var encodeTable [numStates][256]uint16

// keptBits are the mother-code bits of one byte of an encodeTable word
// that a puncture pattern keeps, spread one bit per byte from the low
// byte up, and their count.
type keptBits struct {
	bits uint64
	n    uint8
}

// punctureTable[rate][p/2][y] is what rate's pattern keeps of the 8
// mother-code bits y (first in bit 0) when the first of them falls at
// pattern position p. Bytes of mother code start at even positions only.
var punctureTable [3][3][256]keptBits

// hardNext[state][3·dA+dB] is the state after the one input from state
// whose mother-code bits A and B agree with the hard decisions dA and dB
// (2 for a punctured bit), or -1 if neither input does. No pattern
// punctures both bits of an input, so 3·2+2 is -1 too.
var hardNext [numStates][9]int8

// keptAt[rate] lists the positions within one period of rate's pattern
// that the pattern keeps, in order.
var keptAt [3][]int

func init() {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := (in << (constraintLen - 1)) | s
			a := parity(reg & genA)
			b := parity(reg & genB)
			outputs[s][in] = a<<1 | b
		}
	}
	for j := 0; j < numStates/2; j++ {
		branchIdx[j] = outputs[2*j][0]
	}
	for s := 0; s < numStates; s++ {
		for x := 0; x < 256; x++ {
			state := s
			for i := 0; i < 8; i++ {
				bit := x >> i & 1
				out := outputs[state][bit]
				encodeTable[s][x] |= uint16(out>>1)<<(2*i) | uint16(out&1)<<(2*i+1)
				state = (state >> 1) | (bit << (constraintLen - 2))
			}
		}
	}
	for s := range hardNext {
		for h := range hardNext[s] {
			hardNext[s][h] = -1
			dA, dB := byte(h/3), byte(h%3)
			if dA == 2 && dB == 2 {
				continue
			}
			for in := 0; in < 2; in++ {
				out := outputs[s][in]
				if (dA == 2 || dA == out>>1) && (dB == 2 || dB == out&1) {
					hardNext[s][h] = int8(s>>1 | in<<(constraintLen-2))
				}
			}
		}
	}
	for _, rate := range []Rate{Rate12, Rate23, Rate34} {
		pat := rate.pattern()
		for p, kept := range pat {
			if kept {
				keptAt[rate] = append(keptAt[rate], p)
			}
		}
		for p := 0; p < len(pat); p += 2 {
			for y := 0; y < 256; y++ {
				e := &punctureTable[rate][p/2][y]
				for j := 0; j < 8; j++ {
					if pat[(p+j)%len(pat)] {
						e.bits |= uint64(y>>j&1) << (8 * e.n)
						e.n++
					}
				}
			}
		}
	}
}

func parity(x int) byte {
	var p byte
	for x != 0 {
		p ^= byte(x & 1)
		x >>= 1
	}
	return p
}

// Encode convolutionally encodes data bits (0/1 values) at the given rate
// into a fresh slice; see AppendEncode.
func Encode(data []byte, rate Rate) []byte { return AppendEncode(nil, data, rate) }

// AppendEncode convolutionally encodes data bits (0/1 values; only the
// low bit of each byte counts) at the given rate, appends the
// EncodedLen(len(data), rate) punctured coded bits to dst and returns the
// extended slice. The encoder appends constraintLen-1 zero tail bits to
// terminate the trellis, matching what Decode assumes, and punctures as it
// encodes. dst grows at most once, so a dst with room for the coded bits
// makes the call allocation-free.
//
// It encodes 8 input bits per encodeTable lookup and writes each half of
// the 16 mother-code bits through a puncture table, 8 bytes at a time;
// only the last chunks, within 16 bytes of the end, go bit by bit.
func AppendEncode(dst, data []byte, rate Rate) []byte {
	pat := rate.pattern()
	start, need := len(dst), len(dst)+EncodedLen(len(data), rate)
	if cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = dst[:need]
	out := dst[start:]
	kept := &punctureTable[rate]
	total := len(data) + constraintLen - 1
	state, p, k := 0, 0, 0
	for i := 0; i < total; i += 8 {
		var x byte // input bits i..i+7, input i in bit 0
		if i+8 <= len(data) {
			x = byte((binary.LittleEndian.Uint64(data[i:]) & 0x0101010101010101) * 0x0102040810204080 >> 56)
		} else {
			for j := i; j < min(i+8, len(data)); j++ {
				x |= (data[j] & 1) << (j - i)
			}
		}
		w := encodeTable[state][x]
		state = int(x >> 2)
		if i+8 <= total && k+16 <= len(out) {
			lo := &kept[p/2][w&0xff]
			binary.LittleEndian.PutUint64(out[k:], lo.bits)
			k += int(lo.n)
			p = (p + 8) % len(pat)
			hi := &kept[p/2][w>>8]
			binary.LittleEndian.PutUint64(out[k:], hi.bits)
			k += int(hi.n)
			p = (p + 8) % len(pat)
			continue
		}
		for j := 0; j < 2*min(8, total-i); j++ {
			if pat[p] {
				out[k] = byte(w>>j) & 1
				k++
			}
			if p++; p == len(pat) {
				p = 0
			}
		}
	}
	return dst
}

// EncodedLen returns the number of coded bits Encode produces for n data
// bits at the given rate: the kept bits of every full pattern period of
// the 2(n+6)-bit mother code, plus those of the last partial period.
func EncodedLen(n int, rate Rate) int {
	pat := rate.pattern()
	motherLen := 2 * (n + constraintLen - 1)
	perPeriod, partial := 0, 0
	for i, kept := range pat {
		if kept {
			perPeriod++
			if i < motherLen%len(pat) {
				partial++
			}
		}
	}
	return motherLen/len(pat)*perPeriod + partial
}

// DecodeSoft runs Viterbi over per-bit LLRs (positive = bit 0) and returns
// the n decoded data bits. Punctured positions are reinserted as zero-LLR
// erasures before trellis traversal. The returned slice is freshly
// allocated; DecodeSoftInto decodes into the caller's buffer.
func DecodeSoft(llr []float64, n int, rate Rate) ([]byte, error) {
	bits := make([]byte, n)
	if err := DecodeSoftInto(bits, llr, rate); err != nil {
		return nil, err
	}
	return bits, nil
}

// Decoder is DecodeSoft as a method, for callers that hold a decoder
// value. It has no state: the trellis scratch is borrowed from dsp's
// recycler for each call, so the zero value is ready to use.
type Decoder struct{}

// DecodeSoft is the package-level DecodeSoft.
func (Decoder) DecodeSoft(llr []float64, n int, rate Rate) ([]byte, error) {
	return DecodeSoft(llr, n, rate)
}

// unreachable is the path metric of a state the trellis cannot be in yet.
// Adding a branch metric leaves it far above any real path metric, so the
// add-compare-select needs no reachability guard.
const unreachable = math.MaxFloat64 / 4

// DecodeSoftInto is DecodeSoft writing the len(dst) decoded data bits
// into dst. A frame cleanPath certifies skips the trellis, which would
// write the same bits; otherwise the trellis scratch is borrowed from
// dsp's recycler for the call, so a warm process decodes without
// allocating.
func DecodeSoftInto(dst []byte, llr []float64, rate Rate) error {
	n := len(dst)
	if want := EncodedLen(n, rate); len(llr) != want {
		return fmt.Errorf("fec: got %d coded LLRs, want %d for %d bits at rate %s", len(llr), want, n, rate)
	}
	if !cleanPath(dst, llr, rate) {
		trellis(dst, llr, rate)
	}
	return nil
}

// cleanPath rebuilds the input bits from the hard decisions of llr, the
// len(dst) data bits into dst and the 6 tail bits checked only, and
// reports whether the trellis provably decodes to exactly them: the bits
// re-encode to the hard decisions and end in state 0, every LLR is finite
// and non-zero with Σ|LLR| ≤ unreachable, and min|LLR| >
// 2·γ(total+1)·Σ|LLR| with γ(k) = k·u/(1−k·u), u = 2⁻⁵³. A path merging
// into the hard path differs from it in both mother-code bits at the
// merge, so it loses by at least 2·min|LLR| exactly — more than the
// float64 rounding of both path metrics (DESIGN.md §11).
func cleanPath(dst []byte, llr []float64, rate Rate) bool {
	total := len(dst) + constraintLen - 1
	pat := rate.pattern()
	minAbs, sum := math.Inf(1), 0.0
	state, src, p := 0, 0, 0
	for step := 0; step < total; step++ {
		h := 0 // hard decisions of A and B, 2 for a punctured bit
		for range 2 {
			d := 2
			if pat[p] {
				l := llr[src]
				src++
				a := math.Abs(l)
				if !(a > 0 && a <= math.MaxFloat64) {
					return false
				}
				if a < minAbs {
					minAbs = a
				}
				sum += a
				// l is finite and non-zero here, so its sign bit says
				// exactly whether l < 0.
				d = int(math.Float64bits(l) >> 63)
			}
			if p++; p == len(pat) {
				p = 0
			}
			h = 3*h + d
		}
		if state = int(hardNext[state][h]); state < 0 {
			return false
		}
		if step < len(dst) {
			dst[step] = byte(state >> (constraintLen - 2))
		}
	}
	ku := float64(total+1) * 0x1p-53
	return state == 0 && sum <= unreachable && minAbs > 2*ku/(1-ku)*sum
}

// trellis runs the full Viterbi trellis over llr and writes the len(dst)
// decoded data bits into dst, one trellisKernel call per chunk of up to
// chunkSteps steps. It is the path DecodeSoftInto takes whenever cleanPath
// cannot certify the hard decisions.
func trellis(dst []byte, llr []float64, rate Rate) {
	total := len(dst) + constraintLen - 1
	// Viterbi with full traceback (packet-scale trellises are small).
	survivors := dsp.Borrow[uint64](total)
	defer dsp.Release(survivors)
	var m [numStates]float64
	for s := 1; s < numStates; s++ {
		m[s] = unreachable
	}
	var ab [2 * chunkSteps]float64
	pat, kept := rate.pattern(), keptAt[rate]
	src := 0
	for start := 0; start < total; start += chunkSteps {
		surv := survivors[start:min(start+chunkSteps, total)]
		// Depuncture the chunk's A and B LLRs. Each chunk starts at the
		// pattern's first position, so the punctured slots of ab stay 0
		// and only the kept ones are written. A NaN LLR is an erasure
		// like a punctured bit: left in, its sign would pick survivors,
		// and that sign depends on which operand of an add the compiler
		// puts first.
		n := 2 * len(surv)
		for base := 0; base < n; base += len(pat) {
			for _, at := range kept {
				if base+at >= n {
					break
				}
				l := llr[src]
				if math.IsNaN(l) {
					l = 0
				}
				ab[base+at] = l
				src++
			}
		}
		acsChunk(trellisKernel, &m, surv, &ab)
	}
	// Trellis is terminated: trace back from state 0. The predecessors of
	// state s are (s<<1)&63 and that | 1.
	state := 0
	for step := total - 1; step >= 0; step-- {
		// The input bit that led into state is its MSB.
		if step < len(dst) {
			dst[step] = byte(state >> (constraintLen - 2))
		}
		// state < 64; the mask tells the compiler so.
		state = (state<<1)&(numStates-1) | int(survivors[step]>>(state&(numStates-1))&1)
	}
}
