package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"megamimo/internal/cmplxs"
	"megamimo/internal/csi"
	"megamimo/internal/dsp"
	"megamimo/internal/matrix"
	"megamimo/internal/ofdm"
	psync "megamimo/internal/sync"
	"megamimo/internal/units"
)

// Measurement is one channel snapshot: the estimated H for every occupied
// subcarrier, referenced to a single ether time (§5.1: "all these channels
// have to be measured at the same time").
type Measurement struct {
	// At is the ether time of the lead's sync header (packet start).
	At int64
	// RefMid is the phase reference time of the H estimates: the center of
	// the interleaved measurement block. Referencing the center minimizes
	// the lever arm that multiplies residual per-AP CFO estimation error
	// into per-column phase error (the same reason the paper interleaves
	// the symbols "so that the correction of the channels to a common
	// reference time has minimal error", §5.3).
	RefMid int64
	// Bins lists the occupied FFT bins carrying estimates.
	Bins []int
	// H[i] is the streams × txAntennas channel matrix on Bins[i].
	H []*matrix.M
	// NoiseVar is each stream's reported noise variance.
	NoiseVar []float64

	binIndex map[int]int
}

// Matrix returns the channel matrix for an FFT bin, or nil.
func (m *Measurement) Matrix(bin int) *matrix.M {
	if i, ok := m.binIndex[bin]; ok {
		return m.H[i]
	}
	return nil
}

// schedule pins every transmission of the measurement packet (Fig. 3).
type schedule struct {
	t0       int64 // sync header start
	acqStart int64 // first CFO-block (acquisition) symbol
	csStart  int64 // first interleaved channel symbol
	nAPs     int
	antsPer  int
	rounds   int
}

const (
	headerGap = 80 // silence between header and CFO blocks
	symLen    = ofdm.SymbolLen
)

// cfoBlockSyms is the per-AP CFO block length in symbol slots: a
// 16-periodic acquisition symbol (STF segment) for unambiguous coarse CFO
// up to the full 802.11 ±20 ppm mandate, then two known training symbols
// whose pair phase refines it.
const cfoBlockSyms = 3

func (n *Network) measurementSchedule(t0 int64) schedule {
	s := schedule{
		t0:      t0,
		nAPs:    n.Cfg.NumAPs,
		antsPer: n.Cfg.AntennasPerAP,
		rounds:  n.Cfg.MeasurementRounds,
	}
	s.acqStart = t0 + ofdm.PreambleLen + headerGap
	s.csStart = s.acqStart + int64(cfoBlockSyms*symLen*s.nAPs) + headerGap
	return s
}

// end returns the first sample after the measurement packet.
func (s schedule) end() int64 {
	total := s.nAPs * s.antsPer
	return s.csStart + int64(s.rounds*total*symLen)
}

// refMid returns the phase-reference time: the center of the interleaved
// block.
func (s schedule) refMid() int64 {
	total := s.nAPs * s.antsPer
	return s.csStart + int64(s.rounds*total*symLen/2)
}

// cfoSymbolAt returns the start of CFO-block slot rep (0 = STF segment,
// 1 and 2 = training symbols) of AP a.
func (s schedule) cfoSymbolAt(a, rep int) int64 {
	return s.acqStart + int64((cfoBlockSyms*a+rep)*symLen)
}

// csSymbolAt returns the start of the interleaved symbol for global tx
// antenna g in round r.
func (s schedule) csSymbolAt(r, g int) int64 {
	total := s.nAPs * s.antsPer
	return s.csStart + int64((r*total+g)*symLen)
}

// Measure runs the full channel-measurement phase (§5.1): the lead sends a
// sync header; every AP transmits CFO-estimation symbols and interleaved
// channel-measurement symbols; slaves capture their reference channel from
// the lead; clients estimate every AP channel rotated to the common
// reference time and feed CSI back over the backbone; the lead assembles H
// and distributes precoder rows.
func (n *Network) Measure() error {
	all := make([]int, len(n.Clients))
	for i := range all {
		all[i] = i
	}
	return n.MeasureDecoupled([][]int{all}, 0)
}

// MeasureDecoupled measures the channels to different client groups in
// separate measurement packets separated by gapSamples (§7: a client that
// joins later must not force everyone to be re-measured). Each later
// group's slave columns are rotated back to the first packet's reference
// time using the lead→slave reference channels, exactly the appendix
// construction: the slave measures its lead channel in both packets, the
// phase advance between them is (ω_lead − ω_slave)·Δt, and conjugating it
// re-references the new rows.
func (n *Network) MeasureDecoupled(groups [][]int, gapSamples int64) error {
	n.mMeasurements.Inc()
	if len(groups) == 0 {
		return fmt.Errorf("core: no measurement groups")
	}
	for i, down := range n.crashed {
		if down {
			return fmt.Errorf("core: Measure with AP %d crashed (restart it first)", i)
		}
	}
	lead := n.Lead()
	train := symbolWave
	var reports []*csi.Report
	var mid0 int64
	span := n.tracer.BeginSpan(n.now, KindMeasure, TraceAttrs{AP: lead.Index},
		"%d measurement packets, lead AP %d", len(groups), lead.Index)
	for gi, group := range groups {
		t0 := n.now + 256
		sched := n.measurementSchedule(t0)
		n.trace(t0, KindMeasure, TraceAttrs{AP: lead.Index, Pkt: int64(gi)},
			"packet %d: header by AP %d, %d CFO blocks, %d rounds x %d antennas, clients %v",
			gi, lead.Index, sched.nAPs, sched.rounds, sched.nAPs*sched.antsPer, group)

		// (a) Collecting measurements: post every transmission.
		n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, t0, syncHeader)
		stf80 := acquisitionWave
		for _, ap := range n.APs {
			// CFO block from antenna 0: STF segment + two training symbols.
			n.Air.Transmit(n.APAntennaID(ap.Index, 0), ap.Node.Osc, sched.cfoSymbolAt(ap.Index, 0), stf80)
			for rep := 1; rep < cfoBlockSyms; rep++ {
				n.Air.Transmit(n.APAntennaID(ap.Index, 0), ap.Node.Osc, sched.cfoSymbolAt(ap.Index, rep), train)
			}
			// Interleaved channel symbols from every antenna, every round.
			for m := 0; m < n.Cfg.AntennasPerAP; m++ {
				g := ap.Index*n.Cfg.AntennasPerAP + m
				for r := 0; r < n.Cfg.MeasurementRounds; r++ {
					n.Air.Transmit(n.APAntennaID(ap.Index, m), ap.Node.Osc, sched.csSymbolAt(r, g), train)
				}
			}
		}

		// (c) Slave reference handling.
		corr := make(map[int][]complex128) // AP index → per-bin column correction
		if gi == 0 {
			mid0 = sched.refMid()
			// Every AP — the current lead included — builds sync state
			// toward every potential lead, so §9's per-transmission lead
			// nomination needs no re-measurement.
			for _, ap := range n.APs {
				if err := n.slaveCaptureReference(ap, sched); err != nil {
					return fmt.Errorf("AP %d reference capture: %w", ap.Index, err)
				}
			}
		} else {
			for _, ap := range n.Slaves() {
				mc, err := n.slaveMeasureRatio(ap, t0)
				if err != nil {
					return fmt.Errorf("slave %d decoupled reference: %w", ap.Index, err)
				}
				n.trace(mc.At, KindSlaveRatio,
					TraceAttrs{AP: ap.Index, PhaseErrRad: mc.Residual, CFORadPerSample: mc.CFO},
					"AP %d: decoupled re-reference", ap.Index)
				// The ratio is the phase the slave's oscillator gained on
				// the lead between the two reference points; extending it
				// from that gap to the reference-midpoint gap gives the
				// factor that re-references the new rows' columns
				// (X_i = e^{j(ω_lead−ω_i)Δ}; X_lead = 1).
				lever := float64(sched.refMid()-mid0) - float64(mc.At-mc.RefAt)
				factor := cmplxs.Expi(units.PhaseAdvance(mc.CFO, units.Samples(lever)))
				//lint:ignore hotalloc the re-referenced column correction is retained in corr for the caller
				c := make([]complex128, ofdm.NFFT)
				for b, v := range mc.Ratio {
					c[b] = v * factor
				}
				corr[ap.Index] = c
			}
		}

		// (b) Group clients estimate H and feed back CSI.
		for _, ci := range group {
			cl := n.Clients[ci]
			for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
				rep, err := n.clientEstimate(cl, cm, sched)
				if err != nil {
					return fmt.Errorf("client %d ant %d estimate: %w", cl.Index, cm, err)
				}
				if n.Cfg.CSIQuantBits > 0 {
					csi.QuantizeReport(rep, n.Cfg.CSIQuantBits)
				}
				// Re-reference slave columns of later groups (done at the
				// lead in the real system; the correction factors travel
				// the backbone with the slave's reference measurements).
				if gi > 0 {
					for _, ap := range n.Slaves() {
						c := corr[ap.Index]
						for m := 0; m < n.Cfg.AntennasPerAP; m++ {
							g := ap.Index*n.Cfg.AntennasPerAP + m
							for b := range rep.H[g] {
								rep.H[g][b] *= c[b]
							}
						}
					}
				}
				n.Bus.Send(1000+cl.Index, lead.Index, sched.end(), rep)
			}
		}
		n.now = sched.end() + 64 + gapSamples
		n.Air.ClearBefore(n.now)
	}

	// Lead assembles H after the backbone feedback arrives.
	n.now += n.Bus.LatencySamples + 1
	msgs := n.Bus.Receive(lead.Index, n.now)
	for _, m := range msgs {
		if r, ok := m.Payload.(*csi.Report); ok {
			reports = append(reports, r)
		}
	}
	msmt, err := n.assembleMeasurement(mid0, reports)
	if err != nil {
		return err
	}
	msmt.RefMid = mid0
	n.Msmt = msmt
	n.tracer.EndSpanAttrs(span, n.now, TraceAttrs{AP: lead.Index, OK: true},
		"H assembled: %dx%d on %d bins, reference t=%d, %d reports",
		msmt.H[0].Rows, msmt.H[0].Cols, len(msmt.Bins), msmt.RefMid, len(reports))
	return nil
}

// ltfPhaseOffset is where EstimateChannelLTF's phase-reference sample (the
// first long-training sample) sits relative to the slave observation
// window start.
const ltfPhaseOffset = winLead + ofdm.STFLen + ofdm.LTFGuard

// slaveCaptureReference has AP ap observe the whole measurement packet and
// build phase-synchronization state toward *every* other AP: the current
// lead's reference comes from its sync header; every other potential
// lead's reference comes from its CFO block and interleaved symbols —
// which is what lets §9's per-transmission lead nomination work without a
// fresh measurement phase. Each peer's long-term CFO is initialized from a
// packet-wide fine estimate (a baseline of thousands of samples, so the
// rad/sample error is orders of magnitude below a single header's lag-64
// estimate).
func (n *Network) slaveCaptureReference(ap *AP, sched schedule) error {
	winStart := sched.t0 - winLead
	winLen := int(sched.end()-winStart) + 64
	win := n.observe(n.APAntennaID(ap.Index, 0), ap.Node.Osc, winStart, winLen)
	defer dsp.Release(win)
	lead := n.Lead()
	var sync *ofdm.Sync
	if ap.Index != lead.Index {
		// The current lead cannot hear its own header (half duplex); every
		// other AP acquires it for the header-based reference.
		s, err := ofdm.Detect(win[:ofdm.PreambleLen+winLead+192], 0.5)
		if err != nil {
			return err
		}
		// Pin the trigger-synchronized timing so the reference and the
		// per-packet measurements share a sample-exact phase origin (see
		// slaveMeasureRatio).
		s.LTFStart = winLead + ofdm.STFLen
		s.PayloadStart = winLead + ofdm.PreambleLen
		sync = s
	}
	ref := ltfRef
	bins := occupiedBins()
	total := sched.nAPs * sched.antsPer
	ests := n.estimateSlots(sched.rounds)

	for _, peer := range n.APs {
		if peer.Index == ap.Index {
			continue
		}
		ps := ap.syncTo(peer.Index)
		g := peer.Index * sched.antsPer // peer antenna 0's global index

		// Coarse CFO: the header for the lead, the CFO block otherwise.
		var cfo units.RadPerSample
		if peer.Index == lead.Index {
			cfo = sync.CFO
		} else {
			c, err := n.cfoFromBlock(win, winLead, peer.Index, sched, bins)
			if err != nil {
				return err
			}
			cfo = c
		}

		// Packet-wide fine CFO from the peer's interleaved symbols,
		// refined exactly like the clients do: every round is derotated to
		// a common reference (the peer's first interleaved symbol), so the
		// round-to-round phase drift is the small residual offset, free of
		// 2π ambiguity.
		base := int(sched.csSymbolAt(0, g) - winStart)
		for iter := 0; iter < 3; iter++ {
			for r := 0; r < sched.rounds; r++ {
				idx := int(sched.csSymbolAt(r, g) - winStart)
				if err := n.estimateSymbolChannel(ests[r], win, idx, base, cfo, ref, bins); err != nil {
					return err
				}
			}
			var racc complex128
			for r := 0; r+1 < sched.rounds; r++ {
				for _, b := range bins {
					racc += ests[r+1][b] * cmplx.Conj(ests[r][b])
				}
			}
			if sched.rounds > 1 {
				cfo += units.RadiansOver(units.Radians(cmplx.Phase(racc)), units.Samples(total*symLen))
			}
		}

		var refChan []complex128
		var refAt int64
		if peer.Index == lead.Index {
			h, err := ofdm.EstimateChannelLTF(win, sync)
			if err != nil {
				return err
			}
			refChan = h
			refAt = winStart + ltfPhaseOffset
		} else {
			// The per-round estimates share the common reference already;
			// average and denoise.
			//lint:ignore hotalloc the averaged estimate is retained as the peer reference across rounds
			avg := make([]complex128, ofdm.NFFT)
			for _, e := range ests {
				for _, b := range bins {
					avg[b] += e[b]
				}
			}
			cmplxs.Scale(avg, avg, complex(1/float64(len(ests)), 0))
			ofdm.SmoothChannel(avg)
			refChan = avg
			refAt = winStart + int64(base)
		}
		// The fine estimate's effective baseline is the interleaved block
		// span; the sync scheme seeds its precision weight from it and lets
		// the reference itself be the first phase snapshot (phase(ĥ/ĥ) = 0
		// at refAt) so the very next packet already fuses a long baseline.
		span := float64((sched.rounds - 1) * total * symLen)
		n.sync.Init(ps, psync.RefCapture{Ref: refChan, RefAt: refAt, CFO: cfo, Baseline: span})
	}
	return nil
}

// clientEstimate processes the whole measurement packet at one client
// antenna: per-AP CFO from the CFO blocks, iteratively refined with the
// interleaved symbols, and per-antenna channel estimates rotated to the
// reference time t0.
func (n *Network) clientEstimate(cl *Client, rxAnt int, sched schedule) (*csi.Report, error) {
	winStart := sched.t0 - winLead
	winLen := int(sched.end()-winStart) + 64
	rxID := n.ClientAntennaID(cl.Index, rxAnt)
	win := n.observe(rxID, cl.Node.Osc, winStart, winLen)
	defer dsp.Release(win)

	// Acquire the lead header for timing; t0Idx is where the header begins
	// in the window. Deep-fade clients (Fig. 11's 0 dB dead spots) cannot
	// detect the preamble, so they fall back to the protocol schedule —
	// legitimate, because the measurement timing is trigger-synchronized
	// infrastructure state, and a few samples of timing error only add a
	// per-client phase slope that the client's own equalizer absorbs.
	t0Idx := winLead
	if sync, err := ofdm.Detect(win[:ofdm.PreambleLen+256], 0.5); err == nil {
		t0Idx = sync.PayloadStart - ofdm.PreambleLen
	}

	ref := ltfRef
	bins := occupiedBins()
	total := sched.nAPs * sched.antsPer
	ests := n.estimateSlots(sched.antsPer * sched.rounds)
	antEsts := func(m int) [][]complex128 { return ests[m*sched.rounds : (m+1)*sched.rounds] } // [round][bin]

	report := &csi.Report{
		Client:     cl.Index,
		RxAnt:      rxAnt,
		TxAnts:     make([]int, total),
		H:          make([][]complex128, total),
		MeasuredAt: sched.t0,
	}

	var noiseAcc float64
	var noiseN int
	for a := 0; a < sched.nAPs; a++ {
		// Coarse CFO: lag-16 over the AP's 16-periodic acquisition symbol
		// (unambiguous to ±π/16 rad/sample ≈ ±80 ppm relative at 10 MHz),
		// refined by the training pair's lag-80 phase.
		cfo, err := n.cfoFromBlock(win, t0Idx, a, sched, bins)
		if err != nil {
			return nil, err
		}

		// Iteratively refined per-round estimates for each antenna of AP a,
		// phase referenced at the interleaved-block center.
		midIdx := t0Idx + int(sched.refMid()-sched.t0)
		for iter := 0; iter < 2; iter++ {
			for m := 0; m < sched.antsPer; m++ {
				g := a*sched.antsPer + m
				for r, e := range antEsts(m) {
					idx := t0Idx + int(sched.csSymbolAt(r, g)-sched.t0)
					if err := n.estimateSymbolChannel(e, win, idx, midIdx, cfo, ref, bins); err != nil {
						return nil, err
					}
				}
			}
			// Residual CFO from round-to-round phase drift (spacing
			// total·symLen samples), averaged over antennas and rounds.
			if iter == 0 && sched.rounds > 1 {
				var racc complex128
				for m := 0; m < sched.antsPer; m++ {
					e := antEsts(m)
					for r := 0; r+1 < sched.rounds; r++ {
						for _, b := range bins {
							racc += e[r+1][b] * cmplx.Conj(e[r][b])
						}
					}
				}
				cfo += units.RadiansOver(units.Radians(cmplx.Phase(racc)), units.Samples(total*symLen))
			}
		}
		// Average rounds; accumulate the cross-round spread as the noise
		// estimate; denoise across bins.
		for m := 0; m < sched.antsPer; m++ {
			g := a*sched.antsPer + m
			//lint:ignore hotalloc the averaged estimate is retained in report.H
			avg := make([]complex128, ofdm.NFFT)
			for _, h := range antEsts(m) {
				cmplxs.Add(avg, avg, h)
			}
			cmplxs.Scale(avg, avg, complex(1/float64(sched.rounds), 0))
			for _, h := range antEsts(m) {
				for _, b := range bins {
					d := h[b] - avg[b]
					noiseAcc += real(d)*real(d) + imag(d)*imag(d)
					noiseN++
				}
			}
			ofdm.SmoothChannel(avg)
			report.TxAnts[g] = n.APAntennaID(a, m)
			report.H[g] = avg
		}
	}
	if noiseN > 0 && sched.rounds > 1 {
		// Sample variance of the per-round estimates; each round estimate
		// carries the full per-bin noise (|LTF bin| = 1).
		report.NoiseVar = noiseAcc / float64(noiseN) * float64(sched.rounds) / float64(sched.rounds-1)
	} else {
		report.NoiseVar = n.Cfg.NoiseVar
	}
	cl.NoiseVarEst = report.NoiseVar
	return report, nil
}

// ltfRef is the immutable LTF frequency reference every channel estimate
// divides by.
var ltfRef = ofdm.LTFFreq()

// estimateSymbolChannel derotates the symbol at window index idx by cfo —
// phase referenced to window index refIdx, so every symbol shares one
// reference and residual CFO error is multiplied only by (idx − refIdx) —
// demodulates it and divides by the known training values. It writes only
// the occupied bins of dst, a slot from estimateSlots; the rotate/demod
// scratch lives on the network.
func (n *Network) estimateSymbolChannel(dst, win []complex128, idx, refIdx int, cfo units.RadPerSample, ref []complex128, bins []int) error {
	if idx < 0 || idx+symLen > len(win) {
		return fmt.Errorf("core: symbol window [%d, %d) out of range", idx, idx+symLen)
	}
	freq := n.freqs[0]
	cmplxs.Rotate(n.estBuf, win[idx:idx+symLen], units.PhaseAdvance(-cfo, units.Samples(idx-refIdx)), -cfo)
	if err := n.dem.FreqInto(freq, n.estBuf); err != nil {
		return err
	}
	for _, b := range bins {
		dst[b] = divUnit(freq[b], ref[b])
	}
	return nil
}

// divUnit returns n/m bit for bit as Go's complex division does, without
// its runtime call when m is ±1 ± 0i, as every occupied LTF bin is. For
// such an m the division takes its |real(m)| ≥ |imag(m)| branch with
// ratio = imag(m)/real(m) a zero, denom = real(m)+ratio·imag(m) =
// real(m), and dividing by ±1 is multiplying by it. When both parts come
// out NaN the division repairs infinities and zeros, so that case, and
// any other m, takes the division itself.
func divUnit(n, m complex128) complex128 {
	r := real(m)
	if imag(m) != 0 || math.Float64bits(math.Abs(r)) != math.Float64bits(1) {
		return n / m
	}
	ratio := imag(m) * r
	e := (real(n) + imag(n)*ratio) * r
	f := (imag(n) - real(n)*ratio) * r
	if math.IsNaN(e) && math.IsNaN(f) {
		return n / m
	}
	return complex(e, f)
}

// estimateSlots returns k 64-bin channel-estimate slots from the
// network's grow-only estimate arena. The slots are shared with the next
// call, and only estimateSymbolChannel writes them — always on the
// occupied bins — so every other bin stays zero.
func (n *Network) estimateSlots(k int) [][]complex128 {
	if len(n.estSlots) < k {
		buf := make([]complex128, k*ofdm.NFFT)
		n.estSlots = make([][]complex128, k)
		for i := range n.estSlots {
			n.estSlots[i] = buf[i*ofdm.NFFT : (i+1)*ofdm.NFFT : (i+1)*ofdm.NFFT]
		}
	}
	return n.estSlots[:k]
}

// assembleMeasurement builds per-bin channel matrices from the CSI reports
// (rows ordered by stream = client·antsPerClient + rxAnt).
func (n *Network) assembleMeasurement(t0 int64, reports []*csi.Report) (*Measurement, error) {
	streams := n.NumStreams()
	txAnts := n.NumTxAntennas()
	if len(reports) != streams {
		return nil, fmt.Errorf("core: %d CSI reports for %d streams", len(reports), streams)
	}
	bins := occupiedBins()
	m := &Measurement{
		At:       t0,
		Bins:     bins,
		H:        make([]*matrix.M, len(bins)),
		NoiseVar: make([]float64, streams),
		binIndex: make(map[int]int, len(bins)),
	}
	for i, b := range bins {
		m.binIndex[b] = i
		m.H[i] = matrix.New(streams, txAnts)
	}
	for _, rep := range reports {
		row := rep.Client*n.Cfg.AntennasPerClient + rep.RxAnt
		if row < 0 || row >= streams {
			return nil, fmt.Errorf("core: CSI report for unknown stream %d", row)
		}
		m.NoiseVar[row] = rep.NoiseVar
		for g, h := range rep.H {
			for i, b := range bins {
				m.H[i].Set(row, g, h[b])
			}
		}
	}
	return m, nil
}

// occBins caches the FFT bins carrying data or pilots; the layout is
// static, so one read-only slice serves every network and goroutine.
var occBins = func() []int {
	ks := ofdm.OccupiedCarriers()
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = ofdm.Bin(k)
	}
	return out
}()

// occupiedBins returns the FFT bins carrying data or pilots. The returned
// slice is shared and must not be modified.
func occupiedBins() []int { return occBins }

// acquisitionWave is the 80-sample 16-periodic coarse-CFO segment each AP
// prepends to its CFO block, one read-only wave shared by every network:
// Air.Transmit copies its input.
var acquisitionWave = ofdm.STF()[:symLen]

// cfoFromBlock estimates AP a's carrier offset from its CFO block inside a
// measurement-packet window whose t0 sits at index t0Idx: lag-16 over the
// acquisition symbol gives the unambiguous coarse value; the training
// pair's lag-80 phase refines it. The pair demodulates into the network's
// two frequency buffers.
func (n *Network) cfoFromBlock(win []complex128, t0Idx, a int, sched schedule, bins []int) (units.RadPerSample, error) {
	stfIdx := t0Idx + int(sched.cfoSymbolAt(a, 0)-sched.t0)
	if stfIdx < 0 || stfIdx+symLen > len(win) {
		return 0, fmt.Errorf("core: CFO block out of window")
	}
	var acc complex128
	for i := 0; i < symLen-16; i++ {
		acc += win[stfIdx+i] * cmplx.Conj(win[stfIdx+i+16])
	}
	coarse := units.RadiansOver(units.Radians(-cmplx.Phase(acc)), 16)
	f1, f2 := n.freqs[0], n.freqs[1]
	for k, f := range [2][]complex128{f1, f2} {
		idx := t0Idx + int(sched.cfoSymbolAt(a, k+1)-sched.t0)
		if idx < 0 || idx+symLen > len(win) {
			return 0, fmt.Errorf("core: symbol window [%d, %d) out of range", idx, idx+symLen)
		}
		if err := n.dem.FreqInto(f, win[idx:idx+symLen]); err != nil {
			return 0, err
		}
	}
	var pacc complex128
	for _, b := range bins {
		pacc += f2[b] * cmplx.Conj(f1[b])
	}
	resid := cmplxs.WrapPhase(units.Radians(cmplx.Phase(pacc)) - units.PhaseAdvance(coarse, symLen))
	return coarse + units.RadiansOver(resid, symLen), nil
}
