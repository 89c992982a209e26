package core

import (
	"fmt"
	"math/cmplx"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
	"megamimo/internal/units"
)

// MeasureMisalignment reproduces the §11.1(b) experiment: the lead and the
// first slave alternate OFDM symbols at a receiver, with the slave running
// its full distributed phase correction before joining. The receiver
// estimates both channels each round and tracks the relative phase; the
// deviation from the first round is the phase misalignment the paper
// histograms in Fig. 7 (median 0.017 rad, p95 0.05 rad).
//
// gapSamples idles between rounds (oscillators keep drifting), and the
// returned slice holds one |deviation| per round after the first.
func (n *Network) MeasureMisalignment(rounds int, gapSamples int64) ([]float64, error) {
	if len(n.APs) < 2 || len(n.Clients) < 1 {
		return nil, fmt.Errorf("core: misalignment needs 2 APs and a client")
	}
	slave := n.Slaves()[0]
	if slave.syncTo(n.Lead().Index).Ref == nil {
		return nil, fmt.Errorf("core: run Measure first")
	}
	lead := n.Lead()
	cl := n.Clients[0]
	train := symbolWave
	bins := occupiedBins()

	var refProd []complex128
	haveRef := false
	var out []float64
	// Round-loop scratch, fully rewritten every round.
	mod := ofdm.NewModulator()
	g := make([]complex128, ofdm.NFFT)
	sw := make([]complex128, ofdm.SymbolLen)
	slaveWave := make([]complex128, ofdm.SymbolLen)
	for r := 0; r < rounds; r++ {
		// Lead sync header; slave derives its correction exactly as it
		// would for a data transmission.
		t1 := n.now + 64
		n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, t1, syncHeader)
		c, err := n.slaveMeasureRatio(slave, t1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		n.trace(c.At, KindSlaveRatio,
			TraceAttrs{AP: slave.Index, PhaseErrRad: c.Residual, CFORadPerSample: c.CFO},
			"misalignment round %d", r)

		// Alternating symbol pairs (§11.1b: "each transmitter's
		// transmission consists of pairs of an OFDM symbol followed by an
		// OFDM symbol length of silence", offset by one symbol): the lead
		// occupies even slots, the corrected slave odd slots, for `pairs`
		// repetitions averaged at the receiver.
		const pairs = 4
		tA := t1 + int64(ofdm.PreambleLen) + int64(n.Cfg.TriggerDelaySamples)
		// Slave symbol with the per-bin ratio applied in frequency domain.
		freq := ltfRef
		for i := range g {
			g[i] = freq[i] * c.Ratio[i]
		}
		if err := mod.RawSymbolInto(sw, g); err != nil {
			return nil, err
		}
		for k := 0; k < pairs; k++ {
			tL := tA + int64(2*k*ofdm.SymbolLen)
			tS := tL + int64(ofdm.SymbolLen)
			n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, tL, train)
			phase0 := units.PhaseAdvance(c.CFO, units.Samples((tS-c.At)+(c.RefAt-n.Msmt.RefMid)))
			// Air.Transmit copies, so the rotated wave can reuse one buffer.
			cmplxs.Rotate(slaveWave, sw, phase0, c.CFO)
			n.Air.Transmit(n.APAntennaID(slave.Index, 0), slave.Node.Osc, tS, slaveWave)
		}

		// Receiver: estimate both channels per pair and form the per-bin
		// product p[b] = ĥ_slave·conj(ĥ_lead), averaged across pairs. The
		// deviation versus round 0 is measured per bin and combined
		// coherently — comparing the scalar sum Σp[b] across rounds would
		// lose accuracy whenever the two channels' delay difference sweeps
		// the product phase across the band and the sum nearly cancels.
		win := n.observe(n.ClientAntennaID(cl.Index, 0), cl.Node.Osc, tA, 2*pairs*ofdm.SymbolLen+32)
		//lint:ignore hotalloc round 0's product is retained as refProd across all later rounds
		prod := make([]complex128, ofdm.NFFT)
		fLead, fSlave := n.freqs[0], n.freqs[1]
		for k := 0; k < pairs; k++ {
			if err := n.dem.FreqInto(fLead, win[2*k*ofdm.SymbolLen:]); err != nil {
				return nil, err
			}
			if err := n.dem.FreqInto(fSlave, win[(2*k+1)*ofdm.SymbolLen:]); err != nil {
				return nil, err
			}
			for _, b := range bins {
				prod[b] += fSlave[b] * cmplx.Conj(fLead[b])
			}
		}
		dsp.Release(win) // an error return above leaves it to the GC
		if !haveRef {
			refProd = prod
			haveRef = true
		} else {
			var acc complex128
			for _, b := range bins {
				acc += prod[b] * cmplx.Conj(refProd[b])
			}
			dev := cmplx.Phase(acc)
			if dev < 0 {
				dev = -dev
			}
			out = append(out, dev)
		}
		n.now = tA + int64(2*pairs*ofdm.SymbolLen) + 256 + gapSamples
		n.Air.ClearBefore(n.now)
	}
	return out, nil
}
