// Package modulation implements the 802.11 constellation mappings — BPSK,
// QPSK, 16-QAM and 64-QAM with Gray labeling — plus hard-decision and
// soft (log-likelihood ratio) demapping.
//
// All constellations are normalized to unit average symbol energy so rate
// selection can reason about SNR without per-modulation fudge factors.
package modulation

import (
	"fmt"
	"math"
)

// Scheme identifies a constellation.
type Scheme int

const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
)

// Valid reports whether s is one of the defined constellations. Scheme
// values normally come from phy.MCS.Modulation, which only produces valid
// values; Valid guards the remaining paths.
func (s Scheme) Valid() bool { return s >= BPSK && s <= QAM64 }

// String returns the conventional name of the scheme.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerSymbol returns the number of coded bits carried per symbol, or 0
// for an invalid Scheme (the mapping entry points reject invalid schemes
// with an error before this can matter).
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	return 0
}

// Normalization factors: divide the integer lattice by these so E|x|² = 1.
var (
	norm16 = math.Sqrt(10)
	norm64 = math.Sqrt(42)
	sqrt2  = math.Sqrt(2)
)

// pamDeGray slices v to the nearest Gray-coded PAM level of the given
// width (bits per axis) and returns that level's bit label, MSB first,
// following the 802.11 tables: 0→-1, 1→+1; 00→-3, 01→-1, 11→+1, 10→+3;
// 000→-7, 001→-5, 011→-3, 010→-1, 110→+1, 111→+3, 101→+5, 100→+7.
func pamDeGray(v float64, width int) []byte {
	switch width {
	case 1:
		if v >= 0 {
			return []byte{1}
		}
		return []byte{0}
	case 2:
		switch {
		case v < -2:
			return []byte{0, 0}
		case v < 0:
			return []byte{0, 1}
		case v < 2:
			return []byte{1, 1}
		default:
			return []byte{1, 0}
		}
	case 3:
		switch {
		case v < -6:
			return []byte{0, 0, 0}
		case v < -4:
			return []byte{0, 0, 1}
		case v < -2:
			return []byte{0, 1, 1}
		case v < 0:
			return []byte{0, 1, 0}
		case v < 2:
			return []byte{1, 1, 0}
		case v < 4:
			return []byte{1, 1, 1}
		case v < 6:
			return []byte{1, 0, 1}
		default:
			return []byte{1, 0, 0}
		}
	}
	panic("modulation: bad PAM width")
}

// Map modulates bits (values 0/1, MSB-first per symbol) into complex
// symbols. len(bits) must be a multiple of BitsPerSymbol.
func Map(s Scheme, bits []byte) ([]complex128, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("modulation: unknown scheme %v", s)
	}
	out := make([]complex128, len(bits)/s.BitsPerSymbol())
	if err := MapInto(out, s, bits); err != nil {
		return nil, err
	}
	return out, nil
}

// grayBitsForLevel returns the bit label of the PAM level with index lv
// (ascending amplitude order), consistent with pamGray.
func grayBitsForLevel(lv, width int) []byte {
	x := float64(2*lv + 1 - (1 << width))
	return pamDeGray(x, width)
}

// pamCandidates[width][k][b][c] holds the two levels of bit class c (bit
// b equal to c) that can be nearest to a y with exactly k levels at or
// below it: the class's highest level among the lowest k and its lowest
// level among the rest. A side without a class member repeats the other
// side's level. fl((y−x)²) never decreases as x moves away from y on
// either side, so the smaller of the two distances is the class's minimum
// over all its levels, bit for bit.
var pamCandidates = buildPamCandidates()

func buildPamCandidates() (out [4][9][3][2][2]float64) {
	for width := 1; width <= 3; width++ {
		nLevels := 1 << width
		for k := 0; k <= nLevels; k++ {
			for b := 0; b < width; b++ {
				for c := byte(0); c < 2; c++ {
					below, above := -1, -1 // level indices
					for lv := 0; lv < nLevels; lv++ {
						switch {
						case grayBitsForLevel(lv, width)[b] != c:
						case lv < k:
							below = lv
						case above < 0:
							above = lv
						}
					}
					if below < 0 {
						below = above
					}
					if above < 0 {
						above = below
					}
					out[width][k][b][c] = [2]float64{pamLevel(below, width), pamLevel(above, width)}
				}
			}
		}
	}
	return out
}

// pamLevel is the amplitude of the PAM level with index lv (ascending).
func pamLevel(lv, width int) float64 { return float64(2*lv + 1 - 1<<width) }

// points[s][label] is scheme s's constellation point for the bit label
// (first bit most significant): each axis's PAM level over the scheme's
// normalization, the in-phase axis from the label's first half.
var points = buildPoints()

func buildPoints() (out [4][]complex128) {
	for s := BPSK; s <= QAM64; s++ {
		width := (s.BitsPerSymbol() + 1) / 2 // bits per axis
		level := make([]float64, 1<<width)   // PAM level by axis label
		for lv := range level {
			label := 0
			for _, b := range grayBitsForLevel(lv, width) {
				label = label<<1 | int(b)
			}
			level[label] = pamLevel(lv, width)
		}
		out[s] = make([]complex128, 1<<s.BitsPerSymbol())
		for label := range out[s] {
			i, q := level[label>>width], level[label&(1<<width-1)]
			switch s {
			case BPSK:
				out[s][label] = complex(level[label], 0)
			case QPSK:
				out[s][label] = complex(i/sqrt2, q/sqrt2)
			case QAM16:
				out[s][label] = complex(i/norm16, q/norm16)
			case QAM64:
				out[s][label] = complex(i/norm64, q/norm64)
			}
		}
	}
	return out
}

// MapInto is Map with a caller-supplied destination of exactly
// len(bits)/BitsPerSymbol symbols; it allocates nothing. Only the low bit
// of each byte of bits counts.
func MapInto(dst []complex128, s Scheme, bits []byte) error {
	if !s.Valid() {
		return fmt.Errorf("modulation: unknown scheme %v", s)
	}
	bps := s.BitsPerSymbol()
	if len(bits)%bps != 0 {
		return fmt.Errorf("modulation: %d bits not a multiple of %d", len(bits), bps)
	}
	if len(dst) != len(bits)/bps {
		return fmt.Errorf("modulation: destination holds %d symbols, want %d", len(dst), len(bits)/bps)
	}
	pts := points[s]
	for i := range dst {
		label := 0
		for _, b := range bits[i*bps : (i+1)*bps] {
			label = label<<1 | int(b&1)
		}
		dst[i] = pts[label]
	}
	return nil
}

// slicePAM returns the nearest odd-integer PAM level in ±(2^width − 1).
func slicePAM(v float64, width int) float64 {
	max := float64(int(1)<<width - 1)
	// Nearest odd integer with ties resolved upward, matching pamDeGray's
	// half-open decision intervals: 2·⌊v/2⌋+1, then clamp.
	x := 2*math.Floor(v/2) + 1
	if x > max {
		x = max
	} else if x < -max {
		x = -max
	}
	return x
}

// SlicePoint returns the constellation point nearest to v — the one-symbol
// equivalent of slicing to bits and mapping them back, without the intermediate bit
// slices. The scheme must be valid (callers validate once per frame).
func SlicePoint(s Scheme, v complex128) complex128 {
	switch s {
	case BPSK:
		return complex(slicePAM(real(v), 1), 0)
	case QPSK:
		return complex(slicePAM(real(v)*sqrt2, 1)/sqrt2, slicePAM(imag(v)*sqrt2, 1)/sqrt2)
	case QAM16:
		return complex(slicePAM(real(v)*norm16, 2)/norm16, slicePAM(imag(v)*norm16, 2)/norm16)
	case QAM64:
		return complex(slicePAM(real(v)*norm64, 3)/norm64, slicePAM(imag(v)*norm64, 3)/norm64)
	}
	return v
}

// AppendSoftDemap appends one LLR per coded bit of one received symbol to
// dst and returns the extended slice. Positive means bit 0 is more likely,
// the convention the Viterbi decoder in internal/fec expects. noiseVar is
// the per-symbol complex noise variance; it scales LLR confidence.
//
// LLRs use the max-log approximation over per-axis PAM sets, which is exact
// for BPSK/QPSK and within a fraction of a dB for 16/64-QAM. The call
// allocates nothing beyond dst growth. The scheme must be valid.
func AppendSoftDemap(dst []float64, s Scheme, v complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-9
	}
	switch s {
	case BPSK:
		return append(dst, -4*real(v)/noiseVar)
	case QPSK:
		return append(dst, -4*real(v)/(sqrt2*noiseVar), -4*imag(v)/(sqrt2*noiseVar))
	case QAM16:
		dst = appendPamLLR(dst, real(v)*norm16, 2, noiseVar*10)
		return appendPamLLR(dst, imag(v)*norm16, 2, noiseVar*10)
	case QAM64:
		dst = appendPamLLR(dst, real(v)*norm64, 3, noiseVar*42)
		return appendPamLLR(dst, imag(v)*norm64, 3, noiseVar*42)
	}
	return dst
}

// appendPamLLR appends the max-log LLRs of one Gray-coded PAM axis with
// levels at odd integers: y is the received value on the integer lattice
// and nv the noise variance on that lattice. Each bit's LLR is
// (min over levels labelled 1 − min over levels labelled 0)/nv of the
// squared distance fl((y−x)²). The minima come from the two pamCandidates
// of each class, so they equal a scan over every level bit for bit: with
// a NaN y mapped to +Inf first, no distance is NaN or −0, so the builtin
// min returns the value a d < best scan keeps. It allocates nothing beyond
// dst growth.
func appendPamLLR(dst []float64, y float64, width int, nv float64) []float64 {
	// A scan over a NaN y meets only NaN distances, which no d < best
	// accepts, so both minima stay +Inf; a y of +Inf gives the same.
	if math.IsNaN(y) {
		y = math.Inf(1)
	}
	cands := &pamCandidates[width][levelsAtOrBelow(y, width)]
	for b := 0; b < width; b++ {
		c := &cands[b]
		best0 := min((y-c[0][0])*(y-c[0][0]), (y-c[0][1])*(y-c[0][1]))
		best1 := min((y-c[1][0])*(y-c[1][0]), (y-c[1][1])*(y-c[1][1]))
		dst = append(dst, (best1-best0)/nv)
	}
	return dst
}

// levelsAtOrBelow counts the PAM levels at or below y, 0 for a NaN y. t is
// y's position on the level index scale, where level lv sits at t = lv.
// Rounding y+nLevels-1 never lowers it past an index, because the sum at a
// level is an exact even integer and rounding is monotone; it can raise a
// y just below a level onto it, which the exact comparison undoes.
func levelsAtOrBelow(y float64, width int) int {
	nLevels := 1 << width
	k := 0
	if t := (y + float64(nLevels-1)) / 2; t >= float64(nLevels) {
		k = nLevels
	} else if t >= 0 {
		k = int(t) + 1
	}
	if k > 0 && pamLevel(k-1, width) > y {
		k--
	}
	return k
}
