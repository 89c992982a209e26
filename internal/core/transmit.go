package core

import (
	"fmt"
	"math"
	"math/bits"

	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
	"megamimo/internal/phy"
	"megamimo/internal/rate"
	psync "megamimo/internal/sync"
	"megamimo/internal/units"
)

// winLead is the observation-window lead-in used consistently by slaves and
// clients so every phase reference lines up (see measurement.go).
const winLead = 128

// TxResult reports one joint transmission.
type TxResult struct {
	// Frames holds each stream's decoded frame (nil when that stream was
	// silent or decoding failed entirely).
	Frames []*phy.RxFrame
	// OK marks streams whose frame decoded with a valid FCS.
	OK []bool
	// AirtimeSamples covers the sync header and the frame (the software
	// trigger turnaround is excluded; see JointTransmit).
	AirtimeSamples int64
	// MCS is the rate used.
	MCS phy.MCS
	// PayloadBytes is the per-stream payload size.
	PayloadBytes int
}

// GoodputBits returns the successfully delivered payload bits.
func (r *TxResult) GoodputBits() float64 {
	var bits float64
	for i, ok := range r.OK {
		if ok && r.Frames[i] != nil {
			bits += float64(8 * len(r.Frames[i].Payload))
		}
	}
	return bits
}

// SetPrecoder distributes precoder rows to every AP over the backbone
// (logical distribution — the lead computes W and each AP keeps its rows).
// An AP whose columns already have the precoder's shape has them cleared
// and refilled in place.
func (n *Network) SetPrecoder(p *Precoder) {
	aa := n.Cfg.AntennasPerAP
	for _, ap := range n.APs {
		if len(ap.weights) != aa || len(ap.weights[0]) != p.Streams {
			ap.weights = make([][][]complex128, aa)
			for m := range ap.weights {
				ap.weights[m] = make([][]complex128, p.Streams)
			}
		}
		for m, cols := range ap.weights {
			for j := range cols {
				cols[j] = p.gainColumnInto(cols[j], ap.Index*aa+m, j)
			}
		}
	}
}

// MeasureAndPrecode runs the measurement phase and installs the ZF
// precoder, the normal setup sequence for multiplexed transmission.
func (n *Network) MeasureAndPrecode() (*Precoder, error) {
	if err := n.Measure(); err != nil {
		return nil, err
	}
	return n.Precode(0)
}

// JointTransmit delivers one payload per stream concurrently from all APs
// (§5.2). A nil payload silences that stream while its nulls remain
// enforced (used by the INR experiments). All non-nil payloads must have
// equal length so the frames stay time aligned.
func (n *Network) JointTransmit(payloads [][]byte, mcs phy.MCS) (*TxResult, error) {
	streams := n.NumStreams()
	if len(payloads) != streams {
		return nil, fmt.Errorf("core: %d payloads for %d streams", len(payloads), streams)
	}
	if n.Msmt == nil {
		return nil, fmt.Errorf("core: JointTransmit before Measure")
	}
	for _, ap := range n.APs {
		if n.crashed[ap.Index] {
			continue
		}
		if ap.weights == nil {
			return nil, fmt.Errorf("core: AP %d has no precoder rows", ap.Index)
		}
	}
	// Build the per-stream frames (every AP has every payload via the
	// backbone, §5.2a) in symbol blocks borrowed for the call.
	tx := n.tx
	fs := make([]phy.FrameSymbols, streams)
	defer func() {
		for i := range fs {
			fs[i].Release()
		}
	}()
	frames := make([]*phy.FrameSymbols, streams)
	frameLen := -1
	for j, p := range payloads {
		if p == nil {
			continue
		}
		f := &fs[j]
		if err := tx.FrameSymbolsInto(f, p, mcs); err != nil {
			return nil, err
		}
		if frameLen >= 0 && f.SampleLen() != frameLen {
			return nil, fmt.Errorf("core: stream %d frame length %d != %d (pad payloads equal)", j, f.SampleLen(), frameLen)
		}
		frameLen = f.SampleLen()
		frames[j] = f
	}
	if frameLen < 0 {
		return nil, fmt.Errorf("core: all streams silent")
	}

	span := n.tracer.BeginSpan(n.now, KindJointTx, TraceAttrs{Bits: int64(8 * payloadLen(payloads))},
		"%d streams at %v", streams, mcs)
	_, tD, err := n.postJointFrames(tx, frames)
	if err != nil {
		n.tracer.EndSpanAttrs(span, n.now, TraceAttrs{Cause: "post"}, "%v", err)
		return nil, err
	}

	// 4. Clients decode their streams.
	res := &TxResult{
		Frames:       make([]*phy.RxFrame, streams),
		OK:           make([]bool, streams),
		MCS:          mcs,
		PayloadBytes: payloadLen(payloads),
		// Airtime charges the sync header plus the frame. The trigger
		// turnaround t∆ is a software-radio artifact (§10: "based on the
		// maximum delay of our software implementation") excluded from
		// throughput accounting, as the paper's measured ≈0.9N gains
		// imply; in the 802.11n design the sync header is the packet's
		// own legacy preamble (§6.1), so this is the hardware cost.
		AirtimeSamples: int64(ofdm.PreambleLen) + int64(frameLen),
	}
	for _, cl := range n.Clients {
		for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
			j := cl.Index*n.Cfg.AntennasPerClient + cm
			if frames[j] == nil {
				continue
			}
			win := n.observe(n.ClientAntennaID(cl.Index, cm), cl.Node.Osc, tD-winLead, frameLen+winLead+128)
			f, err := n.rx.Decode(win)
			dsp.Release(win)
			if err != nil {
				n.mDecodeFailures.Inc()
				n.trace(tD, KindDecode, TraceAttrs{Client: cl.Index, Stream: j, Cause: "decode"},
					"stream %d: %v", j, err)
				continue
			}
			res.Frames[j] = f
			res.OK[j] = f.FCSOK
			if !f.FCSOK {
				n.mFCSFailures.Inc()
			}
			n.traceDecode(tD, cl.Index, j, f)
		}
	}
	okCount := 0
	for _, o := range res.OK {
		if o {
			okCount++
		}
	}
	n.mJointTx.Inc()
	n.mStreamsDelivered.Add(int64(okCount))
	n.now = tD + int64(frameLen) + 256
	n.Air.ClearBefore(n.now)
	n.tracer.EndSpanAttrs(span, n.now, TraceAttrs{Bits: int64(res.GoodputBits()), OK: okCount == streams},
		"%d/%d streams delivered, airtime %d samples", okCount, streams, res.AirtimeSamples)
	return res, nil
}

// traceDecode emits one client antenna's decode-quality telemetry.
func (n *Network) traceDecode(at int64, client, stream int, f *phy.RxFrame) {
	if !n.tracer.Enabled() {
		return
	}
	minSub := math.Inf(1)
	for _, s := range f.SubcarrierSNR {
		if s < minSub {
			minSub = s
		}
	}
	minDB := units.Decibels(60)
	if minSub > 0 && !math.IsInf(minSub, 1) {
		minDB = units.LinearToDB(minSub)
		if minDB > 60 {
			minDB = 60
		}
	}
	n.trace(at, KindDecode, TraceAttrs{
		Client:          client,
		Stream:          stream,
		EVMSNRdB:        f.SNRdB,
		MinSubSNRdB:     minDB,
		CFORadPerSample: f.ResidualCFO,
		OK:              f.FCSOK,
	}, "")
}

// postJointFrames runs the transmission side of a joint frame: lead sync
// header (1), slave phase-correction measurement (2), and the precoded,
// phase-corrected emission from every AP antenna at the trigger time (3).
// frames[j] pairs with ap.weights[m][j]; nil frames are silent streams.
// It returns the header time t1 and data start tD.
func (n *Network) postJointFrames(tx *phy.TX, frames []*phy.FrameSymbols) (t1, tD int64, err error) {
	// 1. Lead sync header.
	t1 = n.now + 64
	lead := n.Lead()
	n.Air.Transmit(n.APAntennaID(lead.Index, 0), lead.Node.Osc, t1, syncHeader)
	n.mSyncHeaders.Inc()
	n.mSyncHeaderSmpls.Add(int64(ofdm.PreambleLen))
	n.trace(t1, KindSyncHeader, TraceAttrs{AP: lead.Index}, "lead AP %d", lead.Index)

	// 2. Slaves measure the lead's current channel and derive their phase
	//    correction (§5.2b) through the configured sync.Strategy.
	corr := make(map[int]*psync.Correction, len(n.APs))
	for i := range n.abstain {
		n.abstain[i] = false
	}
	for _, ap := range n.Slaves() {
		mc, mErr := n.slaveMeasureRatio(ap, t1)
		ps := ap.syncTo(lead.Index)
		if mErr != nil {
			// A slave that cannot measure its phase correction falls back
			// to the strategy's prediction while the strategy still trusts
			// it (inside the staleness budget); beyond that the slave
			// abstains — withholding its antennas beats firing with a
			// garbage phase ratio, which would fill every client's null
			// (§5.2b).
			if n.sync.Confidence(ps, t1, n.Cfg.SyncStalenessSamples) > 0 {
				mc = n.sync.Predict(ps, t1-winLead+ltfPhaseOffset)
				n.trace(t1, KindFault, TraceAttrs{AP: ap.Index, Cause: "sync-extrapolate"},
					"slave %d lost the sync header (last good measurement %d samples ago): %v",
					ap.Index, t1-ps.LastAt, mErr)
			} else {
				n.abstain[ap.Index] = true
				n.mSyncAbstain.Inc()
				n.trace(t1, KindFault, TraceAttrs{AP: ap.Index, Cause: "sync-abstain"},
					"slave %d withholds its antennas: %v", ap.Index, mErr)
				continue
			}
		}
		c := mc
		corr[ap.Index] = &c
		if mErr != nil {
			continue
		}
		// The flight recorder's phase-sync telemetry: the innovation of this
		// packet's measured phase against the strategy's prediction is the
		// residual phase error the π/18 nulling budget (§11.1b) bounds.
		n.trace(c.At, KindSlaveRatio,
			TraceAttrs{AP: ap.Index, PhaseErrRad: c.Residual, CFORadPerSample: c.CFO},
			"AP %d: Δφ measured over %d samples", ap.Index, c.At-c.RefAt)
	}

	// Participation: crashed and abstaining APs sit this round out. At
	// full strength the pre-distributed precoder applies untouched; a
	// degraded round re-zero-forces over the survivors (nil weight columns
	// mark shed streams) and is counted and traced.
	mask, full := n.participationMask()
	var mw *maskedWeights
	if mask != full {
		if len(frames) == n.NumStreams() {
			mw, err = n.weightsForMask(mask)
			if err != nil {
				return 0, 0, err
			}
		}
		// Diversity/per-stream precoders need no rebuild: each antenna's
		// weight is independent, so missing antennas just go dark.
		n.mDegradedRounds.Inc()
		n.trace(t1, KindFault, TraceAttrs{Cause: "degraded-round"},
			"degraded transmission: %d/%d APs participating", bits.OnesCount64(mask), len(n.APs))
	}

	// 3. Joint data transmission after the fixed turnaround t∆ (§10).
	tD = t1 + int64(ofdm.PreambleLen) + triggerDelaySamples
	frameLen := 0
	for _, f := range frames {
		if f != nil {
			frameLen = f.SampleLen()
			break
		}
	}
	// Borrowed waveform buffers: Air.Transmit copies its input, so one
	// waveform buffer and one per-stream gain block serve every antenna.
	// Both are fully written before they are read. Each antenna's waveform
	// is synthesized jointly — the streams sum in the frequency domain and
	// one batched IFFT covers the whole frame — so the synthesis cost
	// scales with symbols, not streams × symbols.
	wave := dsp.Borrow[complex128](frameLen)
	defer dsp.Release(wave)
	gainArena := dsp.Borrow[complex128](len(frames) * ofdm.NFFT)
	defer dsp.Release(gainArena)
	gains := make([][]complex128, len(frames))
	for _, ap := range n.APs {
		if n.crashed[ap.Index] || n.abstain[ap.Index] {
			continue
		}
		c := corr[ap.Index]
		for m := 0; m < n.Cfg.AntennasPerAP; m++ {
			if len(ap.weights) <= m {
				return 0, 0, fmt.Errorf("core: AP %d antenna %d has no weights", ap.Index, m)
			}
			if len(ap.weights[m]) != len(frames) {
				return 0, 0, fmt.Errorf("core: AP %d has %d weight columns for %d frames", ap.Index, len(ap.weights[m]), len(frames))
			}
			for j := range frames {
				gains[j] = nil
				if frames[j] == nil {
					continue
				}
				w := ap.weights[m][j]
				if mw != nil {
					w = mw.gain[ap.Index*n.Cfg.AntennasPerAP+m][j]
					if w == nil {
						continue // stream shed in this degraded round
					}
				}
				if c == nil {
					// The lead needs no phase correction: its precoder row
					// applies untouched, no copy.
					gains[j] = w
					continue
				}
				g := gainArena[j*ofdm.NFFT : (j+1)*ofdm.NFFT]
				for i := range g {
					g[i] = w[i] * c.Ratio[i]
				}
				gains[j] = g
			}
			if !tx.SynthesizeJointInto(wave, frames, gains) {
				continue
			}
			if c != nil {
				// Intra-packet tracking with the long-term averaged CFO
				// (§5.3): extrapolate the measured phase from the ratio's
				// reference window to every data sample, including the
				// constant offset between the slave's reference window and
				// the H estimates' reference time (the interleaved-block
				// center).
				phase0 := units.PhaseAdvance(c.CFO, units.Samples((tD-c.At)+(c.RefAt-n.Msmt.RefMid)))
				cmplxs.Rotate(wave, wave, phase0, c.CFO)
			}
			n.Air.Transmit(n.APAntennaID(ap.Index, m), ap.Node.Osc, tD, wave)
		}
	}
	return t1, tD, nil
}

// DiversityTransmit has every AP transmit the same payload coherently to
// one stream's receiver (§8): each antenna weights the signal by h*/|h|
// per subcarrier, so the received amplitudes add — an N² SNR gain that
// rescues clients no single AP can reach. It installs the diversity
// precoder, so call SetPrecoder (or MeasureAndPrecode) before returning to
// multiplexed transmission.
func (n *Network) DiversityTransmit(stream int, payload []byte, mcs phy.MCS) (*TxResult, error) {
	if n.Msmt == nil {
		return nil, fmt.Errorf("core: DiversityTransmit before Measure")
	}
	p, err := ComputeDiversity(n.Msmt, stream)
	if err != nil {
		return nil, err
	}
	n.SetPrecoder(p)
	tx := n.tx
	f := new(phy.FrameSymbols)
	defer f.Release()
	if err := tx.FrameSymbolsInto(f, payload, mcs); err != nil {
		return nil, err
	}
	frames := []*phy.FrameSymbols{f}
	span := n.tracer.BeginSpan(n.now, KindJointTx, TraceAttrs{Stream: stream, Bits: int64(8 * len(payload))},
		"diversity to stream %d at %v", stream, mcs)
	_, tD, err := n.postJointFrames(tx, frames)
	if err != nil {
		n.tracer.EndSpanAttrs(span, n.now, TraceAttrs{Cause: "post"}, "%v", err)
		return nil, err
	}
	frameLen := f.SampleLen()
	res := &TxResult{
		Frames:         make([]*phy.RxFrame, 1),
		OK:             make([]bool, 1),
		MCS:            mcs,
		PayloadBytes:   len(payload),
		AirtimeSamples: int64(ofdm.PreambleLen) + int64(frameLen), // see JointTransmit
	}
	cl := n.Clients[stream/n.Cfg.AntennasPerClient]
	ant := stream % n.Cfg.AntennasPerClient
	win := n.observe(n.ClientAntennaID(cl.Index, ant), cl.Node.Osc, tD-winLead, frameLen+winLead+128)
	defer dsp.Release(win)
	if fr, err := n.rx.Decode(win); err == nil {
		res.Frames[0] = fr
		res.OK[0] = fr.FCSOK
		if !fr.FCSOK {
			n.mFCSFailures.Inc()
		}
		n.traceDecode(tD, cl.Index, stream, fr)
	} else {
		n.mDecodeFailures.Inc()
		n.trace(tD, KindDecode, TraceAttrs{Client: cl.Index, Stream: stream, Cause: "decode"},
			"stream %d: %v", stream, err)
	}
	n.now = tD + int64(frameLen) + 256
	n.Air.ClearBefore(n.now)
	n.tracer.EndSpanAttrs(span, n.now, TraceAttrs{Bits: int64(res.GoodputBits()), OK: res.OK[0]},
		"delivered=%v, airtime %d samples", res.OK[0], res.AirtimeSamples)
	return res, nil
}

// slaveMeasureRatio observes the lead's sync header at t1 and runs the
// configured sync.Strategy's Measure on it: the per-bin ratio ĥ(t1)/ĥ(0)
// is the direct phase-offset measurement that avoids accumulating error
// (§5.2b); the correction's Residual is the innovation against the
// strategy's prediction, the flight recorder's phase-sync statistic (0 on
// the extrapolation ablation, which measures nothing).
func (n *Network) slaveMeasureRatio(ap *AP, t1 int64) (psync.Correction, error) {
	ps := ap.syncTo(n.Lead().Index)
	if ps.Ref == nil {
		return psync.Correction{}, fmt.Errorf("no reference channel toward AP %d (run Measure first)", n.Lead().Index)
	}
	winStart := t1 - winLead
	curAt := winStart + ltfPhaseOffset
	if n.Cfg.ExtrapolatePhase {
		// Ablation: predict Δφ = Δω̂·Δt instead of measuring it. Any error
		// in Δω̂ accumulates linearly with time since the measurement
		// phase (§5.2's "large accumulated errors over time").
		return n.sync.Predict(ps, curAt), nil
	}
	if n.syncLossUntil[ap.Index] > t1 {
		return psync.Correction{}, fmt.Errorf("sync header corrupted (injected, until t=%d)", n.syncLossUntil[ap.Index])
	}
	win := n.observe(n.APAntennaID(ap.Index, 0), ap.Node.Osc, winStart, ofdm.PreambleLen+winLead+192)
	defer dsp.Release(win)
	sync, err := ofdm.Detect(win, 0.5)
	if err != nil {
		return psync.Correction{}, err
	}
	// The schedule is trigger-synchronized (SourceSync-grade timing), so
	// pin the LTF position; correlation peaks a sample off between the two
	// measurements would otherwise alias into per-bin phase slope errors.
	sync.LTFStart = winLead + ofdm.STFLen
	sync.PayloadStart = winLead + ofdm.PreambleLen
	cur, err := ofdm.EstimateChannelLTF(win, sync)
	if err != nil {
		return psync.Correction{}, err
	}
	return n.sync.Measure(ps, cur, curAt)
}

func payloadLen(payloads [][]byte) int {
	for _, p := range payloads {
		if p != nil {
			return len(p)
		}
	}
	return 0
}

// SelectRateFromResult performs closed-loop rate adaptation: each decoded
// frame's per-subcarrier error-vector SNR — which already includes
// residual inter-stream interference and receiver implementation loss —
// feeds the effective-SNR selector (§9: clients report channels and noise;
// the APs map per-subcarrier SNR to a rate). A stream whose probe produced
// no frame at all vetoes (ok = false).
func (n *Network) SelectRateFromResult(res *TxResult) (phy.MCS, bool) {
	best := phy.MCS7
	ok := true
	marginLin := math.Pow(10, -2.0/10) // 2 dB safety on measured SNR
	for _, f := range res.Frames {
		if f == nil {
			ok = false
			continue
		}
		sub := make([]float64, len(f.SubcarrierSNR))
		for i, s := range f.SubcarrierSNR {
			sub[i] = s * marginLin
		}
		mcs, o := rate.Select(sub)
		if !o {
			// Margin pushed a marginal link just under the base rate; the
			// probe itself decoded (f != nil), so BPSK 1/2 demonstrably
			// works — accept it when the unmargined SNR clears it.
			if _, o2 := rate.Select(f.SubcarrierSNR); o2 && f.FCSOK {
				mcs = phy.MCS0
			} else {
				ok = false
				continue
			}
		}
		if mcs < best {
			best = mcs
		}
	}
	return best, ok
}

// ProbeAndSelectRate sends one low-rate probe transmission to every stream
// and adapts the joint MCS from the realized quality.
func (n *Network) ProbeAndSelectRate(payloadBytes int) (phy.MCS, bool, error) {
	streams := n.NumStreams()
	payloads := make([][]byte, streams)
	src := n.rng.Split(uint64(n.now) ^ 0x9E0B)
	for j := range payloads {
		payloads[j] = src.Bytes(make([]byte, payloadBytes))
	}
	res, err := n.JointTransmit(payloads, phy.MCS0)
	if err != nil {
		return 0, false, err
	}
	mcs, ok := n.SelectRateFromResult(res)
	return mcs, ok, nil
}

// NullingINR runs a joint transmission with the victim stream silenced and
// returns the interference-to-noise ratio measured at the victim (linear):
// the §11.1c metric. Phase misalignment is the only thing that leaks
// power into the null.
func (n *Network) NullingINR(victim int, payloadBytes int, mcs phy.MCS) (float64, error) {
	streams := n.NumStreams()
	if streams < 2 {
		return 0, fmt.Errorf("core: INR needs ≥ 2 streams")
	}
	payloads := make([][]byte, streams)
	src := n.rng.Split(uint64(n.now))
	for j := range payloads {
		if j == victim {
			continue
		}
		payloads[j] = src.Bytes(make([]byte, payloadBytes))
	}
	// Stash the data-transmission window before running (the transmission
	// advances the clock).
	startBefore := n.now
	res, err := n.JointTransmit(payloads, mcs)
	if err != nil {
		return 0, err
	}
	// Re-observe the data region cleanly at the victim and measure the
	// interference the way an OFDM receiver experiences it: per-symbol FFT
	// with the cyclic prefix stripped, averaged over the occupied bins.
	// (The CP splice carries an un-nulled linear-convolution transient —
	// real beamforming hardware has it too — but no receiver ever looks at
	// those samples.)
	tD := startBefore + 64 + int64(ofdm.PreambleLen) + triggerDelaySamples
	frameLen := int(res.AirtimeSamples) - int(ofdm.PreambleLen)
	cl := n.Clients[victim/n.Cfg.AntennasPerClient]
	ant := victim % n.Cfg.AntennasPerClient
	obs := n.observeClean(n.ClientAntennaID(cl.Index, ant), cl.Node.Osc, tD+int64(ofdm.PreambleLen), frameLen-ofdm.PreambleLen)
	defer dsp.Release(obs)
	bins := occupiedBins()
	freq := make([]complex128, ofdm.NFFT)
	var acc float64
	var cnt int
	for s := 0; (s+1)*ofdm.SymbolLen <= len(obs); s++ {
		if err := n.dem.FreqInto(freq, obs[s*ofdm.SymbolLen:]); err != nil {
			break
		}
		for _, b := range bins {
			v := freq[b]
			acc += real(v)*real(v) + imag(v)*imag(v)
			cnt++
		}
	}
	if cnt == 0 {
		return 0, fmt.Errorf("core: INR window empty")
	}
	// The demodulator's unitary scaling makes per-bin noise power equal
	// the per-sample noise variance, so this is interference-per-bin over
	// noise-per-bin — the receiver's own SNR-reduction view.
	inr := acc / float64(cnt) / n.Cfg.NoiseVar
	if inr > 0 {
		n.trace(tD, KindNullDepth,
			TraceAttrs{Client: victim / n.Cfg.AntennasPerClient, Stream: victim, NullDepthDB: -units.LinearToDB(inr)},
			"victim stream %d", victim)
	}
	return inr, nil
}
