package main

import (
	"fmt"
	"io"
	"math/cmplx"
	"time"

	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/fec"
	"megamimo/internal/metrics"
	"megamimo/internal/ofdm"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/stats"
	psync "megamimo/internal/sync"
	"megamimo/internal/tracefmt"
)

// probe times direct calls into one lower-layer public function on a fixed
// shape, so a change to that layer shows without the rest of a workload.
type probe struct {
	name  string  // metric name; its last element is the unit
	scale float64 // nanoseconds per reported unit
	batch int     // calls per timed batch
	// prime, when set, runs untimed before each batch.
	prime func()
	call  func(i int) error
}

// probeBatches is the number of timed batches per probe; the reported value
// is the median batch's time per call.
const probeBatches = 9

func (p probe) measure(batches int) (float64, error) {
	per := make([]float64, batches+1)
	for b := range per {
		if p.prime != nil {
			p.prime()
		}
		t0 := time.Now()
		for i := 0; i < p.batch; i++ {
			if err := p.call(i); err != nil {
				return 0, fmt.Errorf("probe %s: %w", p.name, err)
			}
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(p.batch)
	}
	// The first batch warms caches and lazily grown scratch.
	return stats.Median(per[1:]) / p.scale, nil
}

const (
	usec = 1e3
	nsec = 1
)

// noisyFrame returns a PPDU of payload at mcs with leading silence and a
// low noise floor, the shape a client's receive window has.
func noisyFrame(tx *phy.TX, src *rng.Source, payload []byte, mcs phy.MCS) ([]complex128, error) {
	wave, err := tx.Frame(payload, mcs)
	if err != nil {
		return nil, err
	}
	stream := make([]complex128, 200+len(wave)+64)
	copy(stream[200:], wave)
	for i := range stream {
		stream[i] += src.ComplexNormal(1e-4)
	}
	return stream, nil
}

// buildProbes prepares every probe's fixtures from the seed. The returned
// stop function ends the stream sink's writer goroutine.
func buildProbes(seed int64) ([]probe, func() error, error) {
	src := rng.New(seed)
	var ps []probe
	add := func(name string, scale float64, batch int, prime func(), call func(i int) error) {
		ps = append(ps, probe{name: name, scale: scale, batch: batch, prime: prime, call: call})
	}

	// fec: one 1500-byte frame's Viterbi decode at rate 1/2.
	bits := src.Bits(make([]byte, 8*1504))
	coded := fec.Encode(bits, fec.Rate12)
	llr := make([]float64, len(coded))
	for i, b := range coded {
		llr[i] = 1 - 2*float64(b) + 0.3*src.Norm()
	}
	var dec fec.Decoder
	add("fec.Decoder.DecodeSoft.1500B.us", usec, 8, nil, func(int) error {
		_, err := dec.DecodeSoft(llr, len(bits), fec.Rate12)
		return err
	})

	// phy: frame construction, joint synthesis and full receive decode.
	tx, rx := phy.NewTX(), phy.NewRX()
	for _, size := range []int{1500, 300} {
		stream, err := noisyFrame(tx, src, src.Bytes(make([]byte, size)), phy.MCS4)
		if err != nil {
			return nil, nil, err
		}
		add(fmt.Sprintf("phy.RX.Decode.%dB.us", size), usec, 4, nil, func(int) error {
			f, err := rx.Decode(stream)
			if err == nil && !f.FCSOK {
				err = fmt.Errorf("probe frame failed its FCS")
			}
			return err
		})
	}
	payload := src.Bytes(make([]byte, 1500))
	add("phy.TX.FrameSymbols.1500B.us", usec, 16, nil, func(int) error {
		_, err := tx.FrameSymbols(payload, phy.MCS4)
		return err
	})
	for _, n := range []int{4, 8} {
		frames := make([]*phy.FrameSymbols, n)
		gains := make([][]complex128, n)
		for j := range frames {
			f, err := phy.NewTX().FrameSymbols(src.Bytes(make([]byte, 1500)), phy.MCS4)
			if err != nil {
				return nil, nil, err
			}
			frames[j] = f
			gains[j] = make([]complex128, ofdm.NFFT)
			for k := range gains[j] {
				gains[j][k] = src.ComplexNormal(1)
			}
		}
		dst := make([]complex128, frames[0].SampleLen())
		add(fmt.Sprintf("phy.TX.SynthesizeJointInto.N%d.us", n), usec, 8, nil, func(int) error {
			tx.SynthesizeJointInto(dst, frames, gains)
			return nil
		})
	}

	// air, core ZF and sync on an 8-AP network's own links and measurements.
	cfg := core.DefaultConfig(8, 8, experiment.HighSNR.Lo, experiment.HighSNR.Hi)
	cfg.Seed = seed
	cfg.WellConditioned = true
	net, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := net.Measure(); err != nil {
		return nil, nil, err
	}
	before := net.Msmt
	for c := range net.Clients {
		net.EvolveClientLinks(c, remeasureRho)
	}
	if err := net.Measure(); err != nil {
		return nil, nil, err
	}
	after := net.Msmt
	add("core.ZFCache.Compute.full.N8.us", usec, 8, nil, func(int) error {
		_, err := core.NewZFCache().Compute(before, cfg.NoiseVar)
		return err
	})
	// Each timed call updates a cache built on the previous measurement, the
	// steady state of a network whose clients move.
	const zfBatch = 8
	caches := make([]*core.ZFCache, zfBatch)
	add("core.ZFCache.Compute.incremental.N8.us", usec, zfBatch, func() {
		for i := range caches {
			caches[i] = core.NewZFCache()
			_, _ = caches[i].Compute(before, cfg.NoiseVar) // the full probe reports its error
		}
	}, func(i int) error {
		_, err := caches[i].Compute(after, cfg.NoiseVar)
		return err
	})

	wave, err := tx.Frame(src.Bytes(make([]byte, 200)), phy.MCS0)
	if err != nil {
		return nil, nil, err
	}
	a := net.Air
	rxAnt, rxOsc := net.ClientAntennaID(0, 0), net.Clients[0].Node.Osc
	base := net.Now() + 1024
	// Each batch starts on a fresh stretch of ether with the old emissions
	// cleared, so the medium holds the same load for every batch.
	advance := func() {
		base += int64(64 * (len(wave) + 1024))
		a.ClearBefore(base)
	}
	add("air.Air.Transmit.N8.us", usec, 64, advance, func(i int) error {
		ap := i % len(net.APs)
		a.Transmit(net.APAntennaID(ap, 0), net.APs[ap].Node.Osc, base+int64(i/len(net.APs)*(len(wave)+1024)), wave)
		return nil
	})
	add("air.Air.Observe.N8.us", usec, 8, func() {
		advance()
		for ap := range net.APs {
			a.Transmit(net.APAntennaID(ap, 0), net.APs[ap].Node.Osc, base, wave)
		}
	}, func(int) error {
		a.Observe(rxAnt, rxOsc, base, len(wave))
		return nil
	})

	stream, err := noisyFrame(tx, src, src.Bytes(make([]byte, 300)), phy.MCS4)
	if err != nil {
		return nil, nil, err
	}
	syn, err := ofdm.Detect(stream, 0.5)
	if err != nil {
		return nil, nil, err
	}
	add("ofdm.Detect.us", usec, 8, nil, func(int) error {
		_, err := ofdm.Detect(stream, 0.5)
		return err
	})
	ref, err := ofdm.EstimateChannelLTF(stream, syn)
	if err != nil {
		return nil, nil, err
	}
	add("ofdm.EstimateChannelLTF.us", usec, 32, nil, func(int) error {
		_, err := ofdm.EstimateChannelLTF(stream, syn)
		return err
	})
	cur := make([]complex128, len(ref))
	for k, v := range ref {
		cur[k] = v * cmplx.Exp(complex(0, 0.01*float64(k)+0.2))
	}
	strat := psync.Header()
	var peer psync.Peer
	add("sync.Strategy.Measure.header.us", usec, 64, func() {
		peer = psync.Peer{}
		strat.Init(&peer, psync.RefCapture{Ref: ref, Baseline: 4096})
	}, func(i int) error {
		_, err := strat.Measure(&peer, cur, int64(i+1)*20000)
		return err
	})

	// Telemetry: the flight-recorder events of a short demand run, replayed
	// through the live sinks and the metrics sampler.
	events, reg, meta, err := demandEvents(seed)
	if err != nil {
		return nil, nil, err
	}
	sink, err := tracefmt.NewStreamSink(io.Discard, meta, tracefmt.StreamOptions{})
	if err != nil {
		return nil, nil, err
	}
	add("tracefmt.StreamSink.ConsumeTrace.ns", nsec, len(events), nil, func(i int) error {
		sink.ConsumeTrace(events[i])
		return nil
	})
	var mon *tracefmt.Monitor
	add("tracefmt.Monitor.Observe.ns", nsec, len(events), func() {
		mon = tracefmt.NewMonitor(meta, tracefmt.DefaultBudget(), tracefmt.DefaultMonitorWindow)
	}, func(i int) error {
		mon.Observe(events[i])
		return nil
	})
	var sampler *metrics.Sampler
	add("metrics.Sampler.Sample.us", usec, 64, func() { sampler = metrics.NewSampler(reg) }, func(i int) error {
		sampler.Sample(int64(i) * 1000)
		return nil
	})
	return ps, sink.Close, nil
}

// demandEvents runs the demand workload's first cell at toy size and returns
// its MegaMIMO network's flight-recorder events, metrics registry and trace
// metadata.
func demandEvents(seed int64) ([]core.TraceEvent, *metrics.Registry, tracefmt.Meta, error) {
	c := demandCells(seed, true)[0].(*trafficCell)
	if err := c.setup(nil); err != nil {
		return nil, nil, tracefmt.Meta{}, err
	}
	out := newCellOut()
	c.run(nil, out)
	if out.err != nil {
		return nil, nil, tracefmt.Meta{}, out.err
	}
	n := c.mm.n
	return n.Trace().Events(), n.Metrics(), c.mm.meta, nil
}
