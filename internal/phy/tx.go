package phy

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"megamimo/internal/dsp"
	"megamimo/internal/fec"
	"megamimo/internal/interleave"
	"megamimo/internal/modulation"
	"megamimo/internal/ofdm"
	"megamimo/internal/scramble"
	"megamimo/internal/units"
)

// MaxPSDU is the largest payload (before FCS) a frame can carry; the
// 12-bit LENGTH field covers payload+FCS.
const MaxPSDU = 4095 - 4

// scramblerSeed is the fixed initial scrambler state. 802.11 randomizes it
// per frame and carries it in the SERVICE field; a fixed seed keeps the
// simulation deterministic and is announced in SERVICE the same way.
const scramblerSeed = 0x5d

// FrameSymbols is the frequency-domain representation of a complete PPDU:
// the known preamble bins plus one 64-bin vector per OFDM symbol (SIGNAL
// first). A joint beamformer applies per-subcarrier complex gains to this
// representation and synthesizes per-transmitter waveforms from it.
type FrameSymbols struct {
	MCS     MCS
	PSDULen int // bytes, including FCS
	// bins holds the symbols' 64-bin vectors back to back, in a block
	// borrowed from dsp's recycler until Release.
	bins []complex128
}

// Symbol returns symbol s's 64 frequency bins (SIGNAL is symbol 0).
func (f *FrameSymbols) Symbol(s int) []complex128 {
	return f.bins[s*ofdm.NFFT : (s+1)*ofdm.NFFT]
}

// NumSymbols returns the data-field symbol count including SIGNAL.
func (f *FrameSymbols) NumSymbols() int { return len(f.bins) / ofdm.NFFT }

// SampleLen returns the time-domain frame length in samples.
func (f *FrameSymbols) SampleLen() int {
	return ofdm.PreambleLen + f.NumSymbols()*ofdm.SymbolLen
}

// Release hands the frame's symbol block back to dsp's recycler and
// empties the frame, which FrameSymbolsInto may refill.
func (f *FrameSymbols) Release() {
	dsp.Release(f.bins)
	f.bins = nil
}

// AirtimeSeconds returns the frame duration at the given sample rate.
func (f *FrameSymbols) AirtimeSeconds(sampleRate units.Hertz) float64 {
	return float64(f.SampleLen()) / units.Ratio(sampleRate, 1)
}

// TX encodes payloads into PPDUs. A TX owns reusable scratch buffers, so it
// is not safe for concurrent use; each simulated network keeps its own.
type TX struct {
	mod *ofdm.Modulator
	// Per-symbol synthesis scratch (fixed OFDM sizes).
	gainFreq []complex128 // gain-multiplied 64-bin symbol
	stfF     []complex128 // gained STF bins
	ltfF     []complex128 // gained LTF bins
	stfT     []complex128 // one STF period, time domain
	ltfT     []complex128 // one LTF period, time domain
	mapBuf   []complex128 // 48 mapped data values per symbol
	blockBuf []byte       // interleaved coded bits per symbol (grow-only)
	// Frame-encoding scratch (grow-only): the PSDU with its FCS, the
	// scrambled DATA bits and the coded bits of one field.
	psdu, bits, coded []byte
}

// NewTX returns a transmitter pipeline.
func NewTX() *TX {
	return &TX{
		mod:      ofdm.NewModulator(),
		gainFreq: make([]complex128, ofdm.NFFT),
		stfF:     make([]complex128, ofdm.NFFT),
		ltfF:     make([]complex128, ofdm.NFFT),
		stfT:     make([]complex128, ofdm.NFFT),
		ltfT:     make([]complex128, ofdm.NFFT),
		mapBuf:   make([]complex128, ofdm.NData),
	}
}

// FrameSymbols encodes payload (with a CRC-32 FCS appended) at the given
// MCS and returns a new frequency-domain frame, whose symbol block the
// caller may hand back with Release.
func (tx *TX) FrameSymbols(payload []byte, mcs MCS) (*FrameSymbols, error) {
	f := new(FrameSymbols)
	if err := tx.FrameSymbolsInto(f, payload, mcs); err != nil {
		return nil, err
	}
	return f, nil
}

// FrameSymbolsInto is FrameSymbols overwriting f, reusing its symbol block
// when it is large enough and borrowing one from dsp's recycler otherwise.
// Frames refilled this way must not be shared.
func (tx *TX) FrameSymbolsInto(f *FrameSymbols, payload []byte, mcs MCS) error {
	if !mcs.Valid() {
		return fmt.Errorf("phy: invalid MCS %d", int(mcs))
	}
	if len(payload) > MaxPSDU {
		return fmt.Errorf("phy: payload %d bytes exceeds %d", len(payload), MaxPSDU)
	}
	psdu := append(tx.psdu[:0], payload...)
	psdu = binary.LittleEndian.AppendUint32(psdu, crc32.ChecksumIEEE(payload))
	tx.psdu = psdu

	info := mcs.info()
	// SIGNAL: RATE(4) + R(1) + LENGTH(12) + PARITY(1) = 18 info bits; the
	// convolutional tail forms the remaining 6 of the 24-bit field.
	sigBits := make([]byte, 0, 18)
	for i := 3; i >= 0; i-- {
		sigBits = append(sigBits, (info.signal>>i)&1)
	}
	sigBits = append(sigBits, 0) // reserved
	length := len(psdu)
	for i := 0; i < 12; i++ { // LSB first per the standard
		sigBits = append(sigBits, byte((length>>i)&1))
	}
	var par byte
	for _, b := range sigBits {
		par ^= b
	}
	sigBits = append(sigBits, par)

	// DATA field: SERVICE(16 zeros) + PSDU bits + pad to symbol boundary,
	// scrambled; the encoder's zero tail plays the standard's tail bits.
	nInfoBits := 16 + 8*len(psdu)
	nsym := (nInfoBits + 6 + info.ndbps - 1) / info.ndbps
	f.MCS, f.PSDULen = mcs, len(psdu)
	if cap(f.bins) < (1+nsym)*ofdm.NFFT {
		f.Release()
		f.bins = dsp.Borrow[complex128]((1 + nsym) * ofdm.NFFT)
	}
	f.bins = f.bins[:(1+nsym)*ofdm.NFFT]

	// SIGNAL symbol (pilot polarity index 0; data symbols continue from 1).
	tx.coded = fec.AppendEncode(tx.coded[:0], sigBits, fec.Rate12)
	if len(tx.coded) != 48 {
		//lint:ignore panic-policy internal invariant: 18 info bits + tail always code to 48 bits
		panic("phy: SIGNAL encoding produced wrong length")
	}
	if err := tx.symbol(f.Symbol(0), interleave.MustCached(48, 1), modulation.BPSK, tx.coded, 0); err != nil {
		return err
	}

	padded := nsym*info.ndbps - 6
	if cap(tx.bits) < padded {
		tx.bits = make([]byte, padded)
	}
	bits := tx.bits[:padded]
	clear(bits)
	for i := 0; i < 8*len(psdu); i++ {
		bits[16+i] = (psdu[i/8] >> (i % 8)) & 1 // LSB-first per octet
	}
	scramble.New(scramblerSeed).Apply(bits)
	tx.coded = fec.AppendEncode(tx.coded[:0], bits, info.rate)
	coded := tx.coded
	if len(coded) != nsym*info.ncbps {
		//lint:ignore panic-policy internal invariant: the pad computation above sizes bits to fill nsym symbols exactly
		panic(fmt.Sprintf("phy: coded length %d != %d symbols × %d", len(coded), nsym, info.ncbps))
	}
	il := interleave.MustCached(info.ncbps, info.scheme.BitsPerSymbol())
	for s := 0; s < nsym; s++ {
		if err := tx.symbol(f.Symbol(s+1), il, info.scheme, coded[s*info.ncbps:(s+1)*info.ncbps], s+1); err != nil {
			return err
		}
	}
	return nil
}

// symbol interleaves and maps one symbol's coded bits and places the 48
// data values and the pilots for symbol index n onto the 64-bin grid dst.
func (tx *TX) symbol(dst []complex128, il *interleave.Interleaver, scheme modulation.Scheme, coded []byte, n int) error {
	if cap(tx.blockBuf) < len(coded) {
		tx.blockBuf = make([]byte, len(coded))
	}
	block := tx.blockBuf[:len(coded)]
	if err := il.InterleaveInto(block, coded); err != nil {
		return err
	}
	if err := modulation.MapInto(tx.mapBuf, scheme, block); err != nil {
		return err
	}
	clear(dst)
	for i, k := range ofdm.DataCarriers {
		dst[ofdm.Bin(k)] = tx.mapBuf[i]
	}
	ref := ofdm.PilotReference(n)
	for i, k := range ofdm.PilotCarriers {
		dst[ofdm.Bin(k)] = ref[i]
	}
	return nil
}

// SynthesizeWithGainInto builds the transmit waveform into a caller-owned
// destination of length ≥ f.SampleLen() and returns the filled prefix
// dst[:f.SampleLen()], applying an optional per-FFT-bin complex gain to
// every symbol including the preamble. This is the beamforming hook:
// passing the precoder column for one (AP, client) pair yields that AP's
// contribution to that client's frame. Passing nil applies unit gain. It
// allocates nothing.
func (tx *TX) SynthesizeWithGainInto(dst []complex128, f *FrameSymbols, gain []complex128) []complex128 {
	if gain != nil && len(gain) != ofdm.NFFT {
		//lint:ignore panic-policy documented precondition, a caller bug rather than bad input; silent truncation would masquerade as an RF impairment
		panic("phy: gain must have one entry per FFT bin")
	}
	if len(dst) < f.SampleLen() {
		//lint:ignore panic-policy documented precondition, a caller bug rather than bad input
		panic(fmt.Sprintf("phy: destination holds %d samples, frame needs %d", len(dst), f.SampleLen()))
	}
	tx.synthPreambleWithGainInto(dst[:ofdm.PreambleLen], gain)
	off := ofdm.PreambleLen
	for s := range f.NumSymbols() {
		freq := f.Symbol(s)
		src := freq
		if gain != nil {
			for i := range tx.gainFreq {
				tx.gainFreq[i] = freq[i] * gain[i]
			}
			src = tx.gainFreq
		}
		if err := tx.mod.RawSymbolInto(dst[off:off+ofdm.SymbolLen], src); err != nil {
			//lint:ignore panic-policy internal invariant: src is always an NFFT-length vector built above
			panic(err)
		}
		off += ofdm.SymbolLen
	}
	return dst[:f.SampleLen()]
}

// SynthesizeJointInto builds one AP antenna's combined joint-transmission
// waveform directly in the frequency domain: the per-stream precoder gains
// multiply each stream's symbol bins, the gained bins of all streams sum
// per symbol, and one IFFT per symbol converts the sum — instead of a
// full per-stream synthesis followed by a time-domain sum. The preamble
// comes from the summed gains (the transform is linear, so gaining the
// preamble by Σ_j g_j equals summing per-stream gained preambles). gains[j]
// must be nil (silent/shed stream) or an NFFT-length vector, one per frame;
// a nil frames[j] is silent regardless of its gain. All participating
// frames must agree on symbol count (JointTransmit pads payloads equal).
// It reports whether any stream contributed; when false, dst is untouched
// and the antenna stays dark.
func (tx *TX) SynthesizeJointInto(dst []complex128, frames []*FrameSymbols, gains [][]complex128) bool {
	if len(gains) != len(frames) {
		//lint:ignore panic-policy documented precondition, a caller bug rather than bad input
		panic("phy: SynthesizeJointInto wants one gain vector per frame")
	}
	nsym := 0
	for j, f := range frames {
		if f == nil || gains[j] == nil {
			continue
		}
		if len(gains[j]) != ofdm.NFFT {
			//lint:ignore panic-policy documented precondition, a caller bug rather than bad input; silent truncation would masquerade as an RF impairment
			panic("phy: gain must have one entry per FFT bin")
		}
		if nsym != 0 && f.NumSymbols() != nsym {
			//lint:ignore panic-policy documented precondition: JointTransmit already pads payloads to equal frame lengths
			panic("phy: joint frames disagree on symbol count")
		}
		nsym = f.NumSymbols()
	}
	if nsym == 0 {
		return false
	}
	frameLen := ofdm.PreambleLen + nsym*ofdm.SymbolLen
	if len(dst) < frameLen {
		//lint:ignore panic-policy documented precondition, a caller bug rather than bad input
		panic(fmt.Sprintf("phy: destination holds %d samples, frame needs %d", len(dst), frameLen))
	}
	// All accumulated symbol bins of the frame, one IFFT per symbol.
	comb := dsp.Borrow[complex128](nsym * ofdm.NFFT)
	defer dsp.Release(comb)
	clear(comb)
	gainSum := tx.gainFreq
	for i := range gainSum {
		gainSum[i] = 0
	}
	for j, f := range frames {
		g := gains[j]
		if f == nil || g == nil {
			continue
		}
		for i := range gainSum {
			gainSum[i] += g[i]
		}
		for s := range nsym {
			freq := f.Symbol(s)
			acc := comb[s*ofdm.NFFT : (s+1)*ofdm.NFFT]
			for i := range acc {
				acc[i] += freq[i] * g[i]
			}
		}
	}
	tx.synthPreambleWithGainInto(dst[:ofdm.PreambleLen], gainSum)
	plan := dsp.MustPlanFor(ofdm.NFFT)
	off := ofdm.PreambleLen
	for s := 0; s < nsym; s++ {
		out := dst[off : off+ofdm.SymbolLen]
		plan.InverseScaled(out[ofdm.CPLen:], comb[s*ofdm.NFFT:(s+1)*ofdm.NFFT], math.Sqrt(ofdm.NFFT))
		copy(out[:ofdm.CPLen], out[ofdm.SymbolLen-ofdm.CPLen:])
		off += ofdm.SymbolLen
	}
	return true
}

// basePreambleFreq lazily computes the ungained STF/LTF frequency
// definitions once; they are immutable reference vectors shared by every TX.
var basePreambleFreq struct {
	once sync.Once
	stf  []complex128
	ltf  []complex128
}

func preambleFreqBase() (stf, ltf []complex128) {
	basePreambleFreq.once.Do(func() {
		// Reconstruct the STF bins from the reference preamble: FFT of one
		// period-64 window of the STF.
		plan := dsp.MustPlanFor(ofdm.NFFT)
		f := make([]complex128, ofdm.NFFT)
		plan.ForwardScaled(f, ofdm.STF()[:ofdm.NFFT], 1/math.Sqrt(ofdm.NFFT))
		basePreambleFreq.stf = f
		basePreambleFreq.ltf = ofdm.LTFFreq()
	})
	return basePreambleFreq.stf, basePreambleFreq.ltf
}

// synthPreambleWithGainInto reproduces the STF/LTF time structure from
// their frequency definitions with a per-bin gain applied, writing the
// ofdm.PreambleLen samples into dst without allocating.
func (tx *TX) synthPreambleWithGainInto(dst []complex128, gain []complex128) {
	stfBase, ltfBase := preambleFreqBase()
	for i := 0; i < ofdm.NFFT; i++ {
		if gain != nil {
			tx.stfF[i] = stfBase[i] * gain[i]
			tx.ltfF[i] = ltfBase[i] * gain[i]
		} else {
			tx.stfF[i] = stfBase[i]
			tx.ltfF[i] = ltfBase[i]
		}
	}
	plan := dsp.MustPlanFor(ofdm.NFFT)
	plan.InverseScaled(tx.stfT, tx.stfF, math.Sqrt(ofdm.NFFT))
	plan.InverseScaled(tx.ltfT, tx.ltfF, math.Sqrt(ofdm.NFFT))
	n := 0
	for i := 0; i < ofdm.STFLen; i++ {
		dst[n] = tx.stfT[i%ofdm.NFFT]
		n++
	}
	n += copy(dst[n:], tx.ltfT[ofdm.NFFT-ofdm.LTFGuard:])
	n += copy(dst[n:], tx.ltfT)
	copy(dst[n:], tx.ltfT)
}

// Frame is the one-call TX path: payload → waveform at unit gain, in a
// buffer borrowed from dsp's recycler that the caller may hand back with
// dsp.Release once it is done with it.
func (tx *TX) Frame(payload []byte, mcs MCS) ([]complex128, error) {
	var f FrameSymbols
	if err := tx.FrameSymbolsInto(&f, payload, mcs); err != nil {
		return nil, err
	}
	defer f.Release()
	return tx.SynthesizeWithGainInto(dsp.Borrow[complex128](f.SampleLen()), &f, nil), nil
}
