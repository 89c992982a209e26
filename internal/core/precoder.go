package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"megamimo/internal/matrix"
	"megamimo/internal/ofdm"
)

// Precoder holds per-subcarrier transmit weights for the joint
// transmission: W maps stream symbols to AP-antenna signals on each
// occupied bin, already scaled by the per-antenna power constraint (the
// paper's k in "APs multiply the signals by kH⁻¹", §9).
type Precoder struct {
	// Bins are the occupied FFT bins (same order as the Measurement).
	Bins []int
	// W[i] is the txAnts × streams weight matrix on Bins[i], including
	// PowerScale.
	W []*matrix.M
	// PowerScale is the scalar k; each client's effective per-bin signal
	// amplitude after zero-forcing is exactly k.
	PowerScale float64
	// Streams and TxAnts record the dimensions.
	Streams, TxAnts int
}

// normalizePower applies the per-antenna power constraint: it sets
// PowerScale so the antenna with the highest average power across bins
// transmits at unit power, and scales every W by it.
func (p *Precoder) normalizePower() error {
	perAnt := make([]float64, p.TxAnts)
	for _, w := range p.W {
		for a := range perAnt {
			var pw float64
			for _, v := range w.Row(a) {
				pw += real(v)*real(v) + imag(v)*imag(v)
			}
			perAnt[a] += pw
		}
	}
	maxP := 0.0
	for a := range perAnt {
		perAnt[a] /= float64(len(p.W))
		if perAnt[a] > maxP {
			maxP = perAnt[a]
		}
	}
	if maxP <= 0 {
		return fmt.Errorf("core: degenerate precoder (zero channel)")
	}
	p.PowerScale = 1 / math.Sqrt(maxP)
	s := complex(p.PowerScale, 0)
	for _, w := range p.W {
		for i := range w.Data {
			w.Data[i] *= s
		}
	}
	return nil
}

// ComputeDiversity builds the coherent-combining precoder of §8: every AP
// antenna transmits the single stream with weight h*/|h| per bin — full
// per-antenna power, phases aligned at the chosen stream's receiver.
func ComputeDiversity(m *Measurement, stream int) (*Precoder, error) {
	if m == nil || len(m.H) == 0 {
		return nil, fmt.Errorf("core: no measurement to precode from")
	}
	streams, txAnts := m.H[0].Rows, m.H[0].Cols
	if stream < 0 || stream >= streams {
		return nil, fmt.Errorf("core: diversity stream %d out of range", stream)
	}
	p := &Precoder{Bins: m.Bins, W: make([]*matrix.M, len(m.H)), Streams: 1, TxAnts: txAnts, PowerScale: 1}
	for i, h := range m.H {
		w := matrix.New(txAnts, 1)
		for a := 0; a < txAnts; a++ {
			g := h.At(stream, a)
			if ab := cmplx.Abs(g); ab > 1e-12 {
				w.Set(a, 0, cmplx.Conj(g)/complex(ab, 0))
			}
		}
		p.W[i] = w
	}
	return p, nil
}

// gainColumnInto returns the 64-bin per-subcarrier gain vector that
// transmit antenna txAnt applies to stream's frame (zeros outside occupied
// bins) — the per-stream gain phy.TX.SynthesizeJointInto applies. A 64-bin
// dst is cleared and refilled, a nil one allocated.
func (p *Precoder) gainColumnInto(dst []complex128, txAnt, stream int) []complex128 {
	if dst == nil {
		dst = make([]complex128, ofdm.NFFT)
	} else {
		clear(dst)
	}
	for i, b := range p.Bins {
		dst[b] = p.W[i].At(txAnt, stream)
	}
	return dst
}

// DiversitySubcarrierSNR predicts the per-bin SNR of the diversity mode
// for the given measurement and stream: (Σ_a |h_a|)² / noiseVar per bin.
func DiversitySubcarrierSNR(m *Measurement, stream int, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	out := make([]float64, len(m.H))
	for i, h := range m.H {
		var amp float64
		for a := 0; a < h.Cols; a++ {
			amp += cmplx.Abs(h.At(stream, a))
		}
		out[i] = amp * amp / noiseVar
	}
	return out
}
