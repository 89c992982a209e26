package phy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/cmplx"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/fec"
	"megamimo/internal/interleave"
	"megamimo/internal/modulation"
	"megamimo/internal/ofdm"
	"megamimo/internal/scramble"
	"megamimo/internal/units"
)

// Frame decode errors.
var (
	ErrBadSignal = errors.New("phy: SIGNAL field failed parity or rate check")
	ErrTruncated = errors.New("phy: sample stream ends before frame does")
)

// RxFrame is the result of decoding one PPDU.
type RxFrame struct {
	Payload []byte // PSDU minus FCS (valid content only when FCSOK)
	MCS     MCS
	FCSOK   bool
	// SNRdB is the post-equalization error-vector SNR averaged over the
	// data field — the "effective channel" quality the client reports.
	SNRdB units.Decibels
	// EVM is the rms error-vector magnitude over the data field (linear,
	// relative to the unit constellation) — the flight recorder's decode
	// quality telemetry in its raw form (SNRdB is its log view).
	EVM float64
	// ResidualCFO is the carrier offset left after the preamble-based
	// correction, measured from the pilot-tracked common-phase drift
	// across data symbols.
	ResidualCFO units.RadPerSample
	// SubcarrierSNR holds the per-data-subcarrier linear SNR estimate
	// (48 entries) for effective-SNR rate selection feedback.
	SubcarrierSNR []float64
	// Channel is the 64-bin channel estimate from the LTF.
	Channel []complex128
	// Sync carries acquisition details (timing, CFO).
	Sync *ofdm.Sync
	// CommonPhases records the pilot-tracked common phase per data symbol,
	// used by the phase-alignment experiments.
	CommonPhases []units.Radians
}

// RX decodes PPDUs from sample streams. Its demodulator is not safe for
// concurrent use, so each simulated receiver keeps its own RX. Scratch
// sized by the frame is borrowed from dsp's recycler for one decode.
type RX struct {
	dem *ofdm.Demodulator
	// DetectThreshold is the normalized preamble metric cutoff (default 0.5).
	DetectThreshold float64
}

// NewRX returns a receiver pipeline.
func NewRX() *RX {
	return &RX{
		dem:             ofdm.NewDemodulator(),
		DetectThreshold: 0.5,
	}
}

// Decode acquires and decodes the first frame in rx.
func (r *RX) Decode(rx []complex128) (*RxFrame, error) {
	sync, err := ofdm.Detect(rx, r.DetectThreshold)
	if err != nil {
		return nil, err
	}
	return r.DecodeAt(rx, sync)
}

// DecodeAt decodes a frame whose preamble has already been acquired.
func (r *RX) DecodeAt(rx []complex128, sync *ofdm.Sync) (*RxFrame, error) {
	h, err := ofdm.EstimateChannelLTF(rx, sync)
	if err != nil {
		return nil, err
	}
	eq, err := ofdm.NewEqualizer(h)
	if err != nil {
		return nil, err
	}
	noiseVar := estimateNoiseFromLTF(rx, sync)

	// Derotate the whole payload once with the estimated CFO, phase
	// referenced consistently with the channel estimate (at the first LTF
	// sample).
	ltf1 := sync.LTFStart + ofdm.LTFGuard
	payload := dsp.Borrow[complex128](len(rx) - sync.PayloadStart)
	defer dsp.Release(payload)
	cmplxs.Rotate(payload, rx[sync.PayloadStart:], units.PhaseAdvance(-sync.CFO, units.Samples(sync.PayloadStart-ltf1)), -sync.CFO)

	// SIGNAL symbol.
	if len(payload) < ofdm.SymbolLen {
		return nil, ErrTruncated
	}
	var freq [ofdm.NFFT]complex128 // one demodulated symbol
	var eqd [ofdm.NData]complex128 // one equalized symbol
	if err := r.dem.FreqInto(freq[:], payload); err != nil {
		return nil, err
	}
	if err := eq.SymbolInto(eqd[:], freq[:]); err != nil {
		return nil, err
	}
	mcs, psduLen, err := parseSignal(eqd[:])
	if err != nil {
		return nil, err
	}
	signalPhase := eq.CommonPhase()

	info := mcs.info()
	nInfoBits := 16 + 8*psduLen
	nsym := (nInfoBits + 6 + info.ndbps - 1) / info.ndbps
	if len(payload) < (1+nsym)*ofdm.SymbolLen {
		return nil, ErrTruncated
	}
	out := &RxFrame{MCS: mcs, Channel: h, Sync: sync, CommonPhases: make([]units.Radians, 1, nsym+1)}
	out.CommonPhases[0] = signalPhase

	il := interleave.MustCached(info.ncbps, info.scheme.BitsPerSymbol())
	// Per-symbol LLRs, then the whole frame's deinterleaved LLR stream.
	symLLR := dsp.Borrow[float64](info.ncbps)
	defer dsp.Release(symLLR)
	llr := dsp.Borrow[float64](nsym * info.ncbps)
	defer dsp.Release(llr)
	var evmAcc float64
	var evmN int
	var scSNRNum, scSNRCnt [ofdm.NData]float64 // per-subcarrier EVM accumulator
	// The whole data field demodulates in one batched FFT call; the
	// per-symbol loop below then works over slices of the bin block.
	freqAll := dsp.Borrow[complex128](nsym * ofdm.NFFT)
	defer dsp.Release(freqAll)
	if err := r.dem.FreqBatchInto(freqAll, payload[ofdm.SymbolLen:], nsym); err != nil {
		return nil, err
	}
	for s := 0; s < nsym; s++ {
		if err := eq.SymbolInto(eqd[:], freqAll[s*ofdm.NFFT:(s+1)*ofdm.NFFT]); err != nil {
			return nil, err
		}
		out.CommonPhases = append(out.CommonPhases, eq.CommonPhase())
		// Per-subcarrier soft demap with channel-weighted noise.
		symLLR = symLLR[:0]
		for i, v := range eqd[:] {
			b := ofdm.Bin(ofdm.DataCarriers[i])
			g2 := real(h[b])*real(h[b]) + imag(h[b])*imag(h[b])
			nv := noiseVar
			if g2 > 1e-12 {
				nv = noiseVar / g2
			}
			symLLR = modulation.AppendSoftDemap(symLLR, info.scheme, v, nv)
			// EVM against the hard decision.
			e := v - modulation.SlicePoint(info.scheme, v)
			ep := real(e)*real(e) + imag(e)*imag(e)
			evmAcc += ep
			evmN++
			scSNRNum[i] += ep
			scSNRCnt[i]++
		}
		if err := il.DeinterleaveLLRInto(llr[s*info.ncbps:(s+1)*info.ncbps], symLLR); err != nil {
			return nil, err
		}
	}

	bits := dsp.Borrow[byte](nsym*info.ndbps - 6)
	defer dsp.Release(bits)
	if err := fec.DecodeSoftInto(bits, llr, info.rate); err != nil {
		return nil, err
	}
	scramble.New(scramblerSeed).Apply(bits)
	psdu := make([]byte, psduLen)
	for i := 0; i < 8*psduLen; i++ {
		psdu[i/8] |= (bits[16+i] & 1) << (i % 8)
	}
	body := psdu[:psduLen-4]
	gotFCS := binary.LittleEndian.Uint32(psdu[psduLen-4:])
	out.FCSOK = gotFCS == crc32.ChecksumIEEE(body)
	out.Payload = body

	if evmN > 0 && evmAcc > 0 {
		out.SNRdB = units.LinearToDB(float64(evmN) / evmAcc)
		out.EVM = math.Sqrt(evmAcc / float64(evmN))
	} else {
		out.SNRdB = 60
		out.EVM = 1e-3
	}
	if len(out.CommonPhases) >= 2 {
		var drift units.Radians
		for i := 1; i < len(out.CommonPhases); i++ {
			drift += cmplxs.WrapPhase(out.CommonPhases[i] - out.CommonPhases[i-1])
		}
		out.ResidualCFO = units.RadiansOver(units.Div(drift, float64(len(out.CommonPhases)-1)), ofdm.SymbolLen)
	}
	out.SubcarrierSNR = make([]float64, ofdm.NData)
	for i := range out.SubcarrierSNR {
		if scSNRNum[i] > 0 && scSNRCnt[i] > 0 {
			out.SubcarrierSNR[i] = scSNRCnt[i] / scSNRNum[i]
		} else {
			out.SubcarrierSNR[i] = 1e6
		}
	}
	return out, nil
}

// parseSignal decodes the already-equalized SIGNAL symbol through the data
// field's soft path, fed hard ±1 LLRs (positive = bit 0): the BPSK slicer
// reads real(v) >= 0 as bit 1 and anything else, NaN included, as bit 0.
func parseSignal(eqd []complex128) (MCS, int, error) {
	var llr, coded [ofdm.NData]float64
	if len(eqd) != len(llr) {
		return 0, 0, fmt.Errorf("%w: %d equalized bins, want %d", ErrBadSignal, len(eqd), len(llr))
	}
	for i, v := range eqd {
		if real(v) >= 0 {
			llr[i] = -1
		} else {
			llr[i] = 1
		}
	}
	if err := interleave.MustCached(ofdm.NData, 1).DeinterleaveLLRInto(coded[:], llr[:]); err != nil {
		return 0, 0, err
	}
	var bits [18]byte
	if err := fec.DecodeSoftInto(bits[:], coded[:], fec.Rate12); err != nil {
		return 0, 0, err
	}
	var par byte
	for _, b := range bits {
		par ^= b
	}
	if par != 0 {
		return 0, 0, ErrBadSignal
	}
	var rateBits byte
	for i := 0; i < 4; i++ {
		rateBits = rateBits<<1 | bits[i]
	}
	mcs, err := mcsFromSignalBits(rateBits)
	if err != nil {
		return 0, 0, ErrBadSignal
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(bits[5+i]) << i
	}
	if length < 4 || length > MaxPSDU+4 {
		return 0, 0, fmt.Errorf("%w: length %d", ErrBadSignal, length)
	}
	return mcs, length, nil
}

// estimateNoiseFromLTF measures noise variance from the difference of the
// two identical long-training symbols: Var(n) = E|L1-L2|²/2 per sample.
func estimateNoiseFromLTF(rx []complex128, sync *ofdm.Sync) float64 {
	l1 := sync.LTFStart + ofdm.LTFGuard
	if l1+2*ofdm.NFFT > len(rx) {
		return 1e-6
	}
	// Derotate the CFO between the repetitions before differencing.
	//lint:ignore units complex exponential takes the bare scalar at this derotation
	derot := cmplx.Exp(complex(0, float64(units.PhaseAdvance(-sync.CFO, ofdm.NFFT))))
	var acc float64
	for i := 0; i < ofdm.NFFT; i++ {
		d := rx[l1+i] - rx[l1+ofdm.NFFT+i]*derot
		acc += real(d)*real(d) + imag(d)*imag(d)
	}
	nv := acc / (2 * ofdm.NFFT)
	if nv < 1e-12 {
		nv = 1e-12
	}
	return nv
}
