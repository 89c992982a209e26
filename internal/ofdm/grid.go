// Package ofdm implements the 802.11a/g-style OFDM layer the MegaMIMO PHY
// rides on: the 64-subcarrier grid (48 data + 4 pilot tones), short and
// long training preambles, packet detection, carrier-frequency-offset
// estimation, least-squares channel estimation, and a pilot-tracking
// equalizer.
package ofdm

import (
	"fmt"
	"math"

	"megamimo/internal/dsp"
)

// Grid constants for the 20 MHz-class 802.11 OFDM numerology. The same
// numerology runs at 10 Msample/s in the USRP testbed — only the symbol
// duration changes, not the structure.
const (
	NFFT      = 64 // FFT size
	CPLen     = 16 // cyclic prefix samples
	SymbolLen = NFFT + CPLen
	NData     = 48 // data subcarriers per symbol
	NPilot    = 4  // pilot subcarriers per symbol
)

// PilotCarriers are the logical pilot subcarrier indices.
var PilotCarriers = [NPilot]int{-21, -7, 7, 21}

// pilotBase are the pilot values before polarity modulation.
var pilotBase = [NPilot]complex128{1, 1, 1, -1}

// DataCarriers lists the 48 logical data subcarrier indices in increasing
// order (−26…26 minus DC and pilots).
var DataCarriers = buildDataCarriers()

func buildDataCarriers() [NData]int {
	var out [NData]int
	n := 0
	for k := -26; k <= 26; k++ {
		if k == 0 || k == -21 || k == -7 || k == 7 || k == 21 {
			continue
		}
		out[n] = k
		n++
	}
	if n != NData {
		panic("ofdm: data carrier construction broken")
	}
	return out
}

// Bin converts a logical subcarrier index (−32…31) to an FFT bin (0…63).
func Bin(k int) int { return (k + NFFT) % NFFT }

// pilotPolarity is the 127-periodic pilot polarity sequence p_n from
// 802.11-1999 §17.3.5.9 (the scrambler sequence mapped 0→+1, 1→−1).
var pilotPolarity = buildPilotPolarity()

func buildPilotPolarity() [127]float64 {
	// LFSR x^7+x^4+1 seeded all-ones, identical to the scrambler.
	var out [127]float64
	state := 0x7f
	for i := range out {
		b := ((state >> 6) ^ (state >> 3)) & 1
		state = ((state << 1) | b) & 0x7f
		if b == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// PilotPolarity returns p_n for OFDM symbol index n (n counts data symbols
// from the start of the frame; the SIGNAL symbol is index 0 in 802.11 but
// this PHY numbers its own symbols from 0).
func PilotPolarity(n int) float64 { return pilotPolarity[n%127] }

// Modulator converts 48-point data-subcarrier vectors into 80-sample
// time-domain OFDM symbols. It is allocation-free per symbol after reuse
// of the internal scratch buffers; Symbol returns freshly allocated output.
type Modulator struct {
	plan    *dsp.FFTPlan
	freq    []complex128
	scratch []complex128
}

// NewModulator returns a Modulator.
func NewModulator() *Modulator {
	return &Modulator{
		plan:    dsp.MustPlanFor(NFFT),
		freq:    make([]complex128, NFFT),
		scratch: make([]complex128, NFFT),
	}
}

// Symbol builds one OFDM symbol: data is the 48 data-subcarrier values,
// symIdx selects the pilot polarity. The output is CP + body, 80 samples,
// scaled so that average sample power ≈ average subcarrier power × (52/64).
func (m *Modulator) Symbol(data []complex128, symIdx int) ([]complex128, error) {
	if len(data) != NData {
		return nil, fmt.Errorf("ofdm: %d data subcarriers, want %d", len(data), NData)
	}
	for i := range m.freq {
		m.freq[i] = 0
	}
	for i, k := range DataCarriers {
		m.freq[Bin(k)] = data[i]
	}
	p := PilotPolarity(symIdx)
	for i, k := range PilotCarriers {
		m.freq[Bin(k)] = pilotBase[i] * complex(p, 0)
	}
	return m.symbolFromFreq(), nil
}

// RawSymbol builds an OFDM symbol from a full 64-bin frequency-domain
// specification (already including pilots or training values). Used for
// preambles and channel-measurement symbols.
func (m *Modulator) RawSymbol(freq []complex128) ([]complex128, error) {
	out := make([]complex128, SymbolLen)
	if err := m.RawSymbolInto(out, freq); err != nil {
		return nil, err
	}
	return out, nil
}

// RawSymbolInto is RawSymbol with a caller-supplied destination of length ≥
// SymbolLen; it allocates nothing, which is what the joint-transmission hot
// path needs (one call per symbol per AP antenna per stream).
func (m *Modulator) RawSymbolInto(dst, freq []complex128) error {
	if len(freq) != NFFT {
		return fmt.Errorf("ofdm: %d bins, want %d", len(freq), NFFT)
	}
	if len(dst) < SymbolLen {
		return fmt.Errorf("ofdm: destination holds %d samples, want ≥ %d", len(dst), SymbolLen)
	}
	copy(m.freq, freq)
	m.symbolFromFreqInto(dst)
	return nil
}

func (m *Modulator) symbolFromFreq() []complex128 {
	out := make([]complex128, SymbolLen)
	m.symbolFromFreqInto(out)
	return out
}

func (m *Modulator) symbolFromFreqInto(dst []complex128) {
	m.plan.Inverse(m.scratch, m.freq)
	// IFFT of unit-power subcarriers yields samples with power 52/64²;
	// rescale by √NFFT so occupied-carrier power maps 1:1 to sample power
	// (times occupancy fraction). This keeps SNR bookkeeping simple.
	scale := complex(math.Sqrt(NFFT), 0)
	for i := 0; i < NFFT; i++ {
		m.scratch[i] *= scale
	}
	copy(dst[CPLen:SymbolLen], m.scratch)
	copy(dst[:CPLen], m.scratch[NFFT-CPLen:])
}

// Demodulator converts received 80-sample symbols back to the frequency
// domain.
type Demodulator struct {
	plan    *dsp.FFTPlan
	scratch []complex128
}

// NewDemodulator returns a Demodulator.
func NewDemodulator() *Demodulator {
	return &Demodulator{plan: dsp.MustPlanFor(NFFT), scratch: make([]complex128, NFFT)}
}

// FreqInto writes the 64 frequency bins of one received symbol (CP
// stripped) into dst, which holds at least NFFT bins; it allocates nothing.
// samples must hold at least SymbolLen samples, the first CPLen being the
// cyclic prefix. dst must not alias samples.
func (d *Demodulator) FreqInto(dst, samples []complex128) error {
	if len(samples) < SymbolLen {
		return fmt.Errorf("ofdm: %d samples, want ≥ %d", len(samples), SymbolLen)
	}
	if len(dst) < NFFT {
		return fmt.Errorf("ofdm: destination holds %d bins, want ≥ %d", len(dst), NFFT)
	}
	d.plan.Forward(d.scratch, samples[CPLen:SymbolLen])
	scale := complex(1/math.Sqrt(NFFT), 0)
	for i := 0; i < NFFT; i++ {
		dst[i] = d.scratch[i] * scale
	}
	return nil
}

// FreqBatchInto demodulates count consecutive symbols starting at samples
// into dst (count×NFFT bins, symbol s at dst[s*NFFT:]): the CP-stripped
// symbol bodies are packed contiguously into dst and transformed with a
// single batched FFT, so a whole frame's data field demodulates in one
// call. Per-bin results are bit-identical to count FreqInto calls. dst must
// not alias samples.
func (d *Demodulator) FreqBatchInto(dst, samples []complex128, count int) error {
	if count <= 0 {
		return fmt.Errorf("ofdm: batch of %d symbols", count)
	}
	if len(samples) < count*SymbolLen {
		return fmt.Errorf("ofdm: %d samples, want ≥ %d", len(samples), count*SymbolLen)
	}
	if len(dst) < count*NFFT {
		return fmt.Errorf("ofdm: destination holds %d bins, want ≥ %d", len(dst), count*NFFT)
	}
	for s := 0; s < count; s++ {
		copy(dst[s*NFFT:(s+1)*NFFT], samples[s*SymbolLen+CPLen:(s+1)*SymbolLen])
	}
	d.plan.ForwardBatch(dst[:count*NFFT], dst[:count*NFFT])
	scale := complex(1/math.Sqrt(NFFT), 0)
	for i := range dst[:count*NFFT] {
		dst[i] *= scale
	}
	return nil
}

// PilotReference returns the expected pilot values for symbol index n.
func PilotReference(n int) [NPilot]complex128 {
	p := complex(PilotPolarity(n), 0)
	var out [NPilot]complex128
	for i := range pilotBase {
		out[i] = pilotBase[i] * p
	}
	return out
}

// OccupiedCarriers returns all 52 occupied logical subcarrier indices
// (data + pilots) in increasing order.
func OccupiedCarriers() []int {
	out := make([]int, 0, NData+NPilot)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}
