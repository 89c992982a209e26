package core

import (
	"fmt"
	"math/cmplx"

	"megamimo/internal/cmplxs"
	"megamimo/internal/csi"
	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
	psync "megamimo/internal/sync"
	"megamimo/internal/units"
)

// MeasureDot11n runs the §6 channel-measurement procedure for
// off-the-shelf 802.11n clients, which cannot receive MegaMIMO's custom
// interleaved measurement packet. The network "tricks" each client into
// measuring two channels at a time with a series of two-stream soundings:
// every sounding carries the reference antenna (the lead's antenna 0) plus
// one other antenna, under an orthogonal ±1 cover across two training
// symbols (the HT-LTF structure). The repeated reference-antenna
// measurements give the client its own accumulated phase offset to the
// lead (Δφ(L1,R)); each slave measures its offset to the lead from the
// sounding's sync header (Δφ(L1,S)); their difference re-references every
// slave-antenna measurement to the first sounding's time — §6.2 verbatim.
//
// The combining at the client uses the client's single CFO estimate from
// the sync header, exactly like a real 802.11n receiver that believes one
// transmitter sent the packet; the residual slave-to-lead oscillator
// offset over the two-symbol cover is therefore part of the measured
// channel error, one reason the paper's 802.11n gains are 1.67–1.83×
// rather than the theoretical 2×.
func (n *Network) MeasureDot11n() error {
	lead := n.Lead()
	refAnt := lead.Index * n.Cfg.AntennasPerAP // global index of L1
	totalAnts := n.NumTxAntennas()
	if totalAnts < 2 {
		return fmt.Errorf("core: 802.11n measurement needs ≥ 2 antennas")
	}
	train := symbolWave
	trainNeg := cmplxs.Scale(make([]complex128, len(train)), train, -1)
	ref := ltfRef
	bins := occupiedBins()
	sounding := n.estimateSlots(2)
	h1, h2 := sounding[0], sounding[1]

	// Sounding slots: slot 0 pairs L1 with the next lead antenna (or, for
	// single-antenna leads, with the first slave antenna), later slots
	// cover the remaining antennas. Every slot also re-sounds L1.
	others := make([]int, 0, totalAnts-1)
	for g := 0; g < totalAnts; g++ {
		if g != refAnt {
			others = append(others, g)
		}
	}

	type clientState struct {
		hRef0  []complex128 // L1 channel at slot 0
		est    [][]complex128
		report *csi.Report
	}
	states := make(map[[2]int]*clientState)
	for _, cl := range n.Clients {
		for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
			states[[2]int{cl.Index, cm}] = &clientState{
				est: make([][]complex128, totalAnts),
			}
		}
	}
	slaveDelta := make(map[int][]complex128) // AP index → ΔL1S per slot? folded below

	var t0Sym int64
	for slot, g := range others {
		apOwner := g / n.Cfg.AntennasPerAP
		antOfOwner := g % n.Cfg.AntennasPerAP
		tH := n.now + 64
		// Sync header from L1 (the legacy symbols of a mixed-mode frame).
		n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, tH, syncHeader)

		// Slaves track their lead offset from the header.
		for _, ap := range n.Slaves() {
			if slot == 0 {
				if err := n.slaveCaptureHeaderReference(ap, tH); err != nil {
					return fmt.Errorf("slave %d header reference: %w", ap.Index, err)
				}
				slaveDelta[ap.Index] = unitVector()
			} else {
				c, err := n.slaveMeasureRatio(ap, tH)
				if err != nil {
					return fmt.Errorf("slave %d slot %d: %w", ap.Index, slot, err)
				}
				slaveDelta[ap.Index] = c.Ratio
			}
		}

		// Two-symbol orthogonal sounding: L1 sends [T, T]; antenna g sends
		// [T, −T].
		tS := tH + int64(ofdm.PreambleLen) + triggerDelaySamples
		if slot == 0 {
			t0Sym = tS
		}
		n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, tS, train)
		n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, tS+int64(ofdm.SymbolLen), train)
		ownerNode := n.APs[apOwner].Node
		n.Air.Transmit(n.APAntennaID(apOwner, antOfOwner), ownerNode.Osc, tS, train)
		n.Air.Transmit(n.APAntennaID(apOwner, antOfOwner), ownerNode.Osc, tS+int64(ofdm.SymbolLen), trainNeg)

		// Clients: estimate both channels from the sounding, then rotate
		// to slot 0 using the reference-antenna trick.
		for _, cl := range n.Clients {
			for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
				st := states[[2]int{cl.Index, cm}]
				winStart := tH - winLead
				winLen := int(tS-winStart) + 2*ofdm.SymbolLen + 64
				win := n.observe(n.ClientAntennaID(cl.Index, cm), cl.Node.Osc, winStart, winLen)
				var cfo units.RadPerSample
				if sync, err := ofdm.Detect(win[:ofdm.PreambleLen+winLead+192], 0.5); err == nil {
					cfo = sync.CFO
				} else {
					// Deep-fade antenna: fall back to the trigger schedule
					// and a direct lag-64 CFO over the known LTF position
					// (noisy but unbiased; the reference-antenna rotation
					// only needs it within ambiguity bounds).
					cfo = lag64CFO(win, winLead+ofdm.STFLen+ofdm.LTFGuard)
				}
				symIdx := int(tS - winStart)
				err := n.estimateSymbolChannel(h1, win, symIdx, symIdx, cfo, ref, bins)
				if err == nil {
					err = n.estimateSymbolChannel(h2, win, symIdx+ofdm.SymbolLen, symIdx, cfo, ref, bins)
				}
				dsp.Release(win)
				if err != nil {
					return err
				}
				//lint:ignore hotalloc retained in per-slot state (hRef0/est) across the measurement
				hRef := make([]complex128, ofdm.NFFT)
				//lint:ignore hotalloc retained in per-slot state (hRef0/est) across the measurement
				hOther := make([]complex128, ofdm.NFFT)
				for _, b := range bins {
					hRef[b] = (h1[b] + h2[b]) / 2
					hOther[b] = (h1[b] - h2[b]) / 2
				}
				ofdm.SmoothChannel(hRef)
				ofdm.SmoothChannel(hOther)
				if slot == 0 {
					st.hRef0 = hRef
					st.est[refAnt] = hRef
					st.est[g] = hOther
					continue
				}
				// Δφ(L1, R) between this slot and slot 0.
				deltaL1R := psync.FitRatio(hRef, st.hRef0)
				// Rotate the new antenna's channel back:
				// corrected = est · conj(ΔL1R) · ΔL1S (ΔL1S = 1 for lead
				// antennas — same oscillator as the reference).
				//lint:ignore hotalloc the corrected estimate is retained in st.est for the report
				corr := make([]complex128, ofdm.NFFT)
				var ds []complex128
				if apOwner != lead.Index {
					ds = slaveDelta[apOwner]
				}
				for _, b := range bins {
					c := cmplx.Conj(deltaL1R[b])
					if ds != nil {
						c *= ds[b]
					}
					corr[b] = hOther[b] * c
				}
				st.est[g] = corr
			}
		}
		n.now = tS + 2*int64(ofdm.SymbolLen) + 256
		n.Air.ClearBefore(n.now)
	}

	// Assemble CSI reports (the clients' firmware hands back H; the lead
	// already holds the slave deltas it used above).
	var reports []*csi.Report
	for _, cl := range n.Clients {
		for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
			st := states[[2]int{cl.Index, cm}]
			rep := &csi.Report{
				Client:     cl.Index,
				RxAnt:      cm,
				TxAnts:     make([]int, totalAnts),
				H:          st.est,
				NoiseVar:   n.Cfg.NoiseVar,
				MeasuredAt: t0Sym,
			}
			for g := 0; g < totalAnts; g++ {
				rep.TxAnts[g] = n.APAntennaID(g/n.Cfg.AntennasPerAP, g%n.Cfg.AntennasPerAP)
			}
			if n.Cfg.CSIQuantBits > 0 {
				csi.QuantizeReport(rep, n.Cfg.CSIQuantBits)
			}
			reports = append(reports, rep)
		}
	}
	msmt, err := n.assembleMeasurement(t0Sym, reports)
	if err != nil {
		return err
	}
	msmt.RefMid = t0Sym
	n.Msmt = msmt
	return nil
}

// slaveCaptureHeaderReference is slaveCaptureReference for a bare sync
// header (no interleaved block): the reference channel and a coarse CFO
// come from the header alone; the precision-weighted tracker refines the
// CFO across subsequent slots.
func (n *Network) slaveCaptureHeaderReference(ap *AP, t0 int64) error {
	winStart := t0 - winLead
	win := n.observe(n.APAntennaID(ap.Index, 0), ap.Node.Osc, winStart, ofdm.PreambleLen+winLead+192)
	defer dsp.Release(win)
	sync, err := ofdm.Detect(win, 0.5)
	if err != nil {
		return err
	}
	sync.LTFStart = winLead + ofdm.STFLen
	sync.PayloadStart = winLead + ofdm.PreambleLen
	h, err := ofdm.EstimateChannelLTF(win, sync)
	if err != nil {
		return err
	}
	ps := ap.syncTo(n.Lead().Index)
	// One-symbol baseline: the strategy seeds its precision weight as
	// Baseline².
	n.sync.Init(ps, psync.RefCapture{
		Ref:      h,
		RefAt:    winStart + ltfPhaseOffset,
		CFO:      sync.CFO,
		Baseline: float64(ofdm.NFFT),
	})
	return nil
}

// lag64CFO estimates the carrier offset from the two identical LTF
// repetitions at a known position, without detection.
func lag64CFO(win []complex128, ltf1 int) units.RadPerSample {
	if ltf1 < 0 || ltf1+2*ofdm.NFFT > len(win) {
		return 0
	}
	var acc complex128
	for i := 0; i < ofdm.NFFT; i++ {
		acc += win[ltf1+i] * cmplx.Conj(win[ltf1+ofdm.NFFT+i])
	}
	return units.RadiansOver(units.Radians(-cmplx.Phase(acc)), units.Samples(ofdm.NFFT))
}

// unitVector returns an all-ones per-bin vector on the occupied carriers.
func unitVector() []complex128 {
	out := make([]complex128, ofdm.NFFT)
	for _, b := range occupiedBins() {
		out[b] = 1
	}
	return out
}
