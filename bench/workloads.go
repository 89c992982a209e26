package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"

	"megamimo/internal/baseline"
	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/fault"
	"megamimo/internal/metrics"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/stats"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// cell is one independent piece of a workload pass. Its set-up calls count
// toward setup_s, its run toward run_s. A pass builds fresh cells from the
// seed, so every pass repeats exactly the same simulated work.
type cell interface {
	setup(tr *tracer) error
	run(tr *tracer, out *cellOut)
	// ops is the number of operations run attempts.
	ops() int
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// cells builds one pass from the seed; toy shrinks it for the smoke test.
	cells func(seed int64, toy bool) []cell
	// sim folds a pass's samples into the simulated headline results.
	sim func(s samples) []simValue
}

// simValue is one simulated result: a number of the modelled network, not
// of the host running the simulation.
type simValue struct {
	name, unit string
	value      float64
}

// samples holds named simulated values, appended cell by cell.
type samples map[string][]float64

// cellOut collects what one cell's operations produced: accounting, the
// SHA-256 of its simulated outputs, headline samples and layer counts.
type cellOut struct {
	ops, failed int
	err         error // first failure, for the report
	h           hash.Hash
	sim         samples
	counts      map[string]float64
}

func newCellOut() *cellOut {
	return &cellOut{h: sha256.New(), sim: samples{}, counts: map[string]float64{}}
}

func (o *cellOut) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	o.h.Write(b[:])
}

func (o *cellOut) float(v float64) { o.word(math.Float64bits(v)) }

func (o *cellOut) sample(name string, v float64) { o.sim[name] = append(o.sim[name], v) }

func (o *cellOut) fail(err error) {
	o.failed++
	if o.err == nil {
		o.err = err
	}
}

func (o *cellOut) sum() [32]byte {
	var s [32]byte
	copy(s[:], o.h.Sum(nil))
	return s
}

// registryCounts maps per-layer count metrics to the network registry
// counters they read.
var registryCounts = []struct{ metric, counter string }{
	{"core.joint_tx", "core_joint_tx_total"},
	{"core.measurements", "core_measurements_total"},
	{"core.streams_delivered", "core_streams_delivered_total"},
	{"phy.decode_failures", "phy_decode_failures_total"},
	{"phy.fcs_failures", "phy_fcs_failures_total"},
	{"mac.retransmissions", "mac_retransmissions_total"},
	{"mac.packets_failed", "mac_packets_failed_total"},
	{"traffic.drops", "traffic_drops_total"},
	{"core.degraded_rounds", "degraded_rounds_total"},
	{"core.sync_abstain", "sync_abstain_total"},
	{"core.lead_failovers", "lead_failovers_total"},
	{"backend.dropped", "backend_dropped_total"},
	{"fault.injected", "fault_injected_total"},
}

// registry adds a network's counters to the cell's counts and folds them
// into the digest.
func (o *cellOut) registry(reg *metrics.Registry) {
	for _, rc := range registryCounts {
		v := reg.Counter(rc.counter).Value()
		o.counts[rc.metric] += float64(v)
		o.word(uint64(v))
	}
	q := reg.Histogram("mac_queue_depth", nil).Quantile(0.95)
	o.counts["mac.queue_depth_p95"] = math.Max(o.counts["mac.queue_depth_p95"], q)
}

// cellSeed derives a cell's seed from the run seed; cells of one seed never
// share a topology with cells of the next seed.
func cellSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func sum(xs []float64) float64 { return stats.Mean(xs) * float64(len(xs)) }

// newNetwork, measureAndPrecode: the set-up calls every workload issues,
// each in its own span.
func newNetwork(tr *tracer, cfg core.Config) (*core.Network, error) {
	s := tr.begin("core.New")
	n, err := core.New(cfg)
	tr.end(s)
	return n, err
}

func measureAndPrecode(tr *tracer, n *core.Network) error {
	s := tr.begin("core.Measure")
	err := n.Measure()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.Precode")
	_, err = n.Precode(n.Cfg.NoiseVar)
	tr.end(s)
	return err
}

var workloads = []*workload{
	{
		name:  "scaling",
		why:   "Fig. 9 joint transmission with N=2..10 APs in two SNR bins: long multiplexed frames, decode-heavy",
		cells: scalingCells,
		sim:   scalingSim,
	},
	{
		name:  "remeasure",
		why:   "mobile clients: re-measure, incremental zero-forcing and a short nulled packet per step; bypasses long-frame decode",
		cells: remeasureCells,
		sim:   remeasureSim,
	},
	{
		name:  "demand",
		why:   "Poisson user demand through the MAC scheduler, 802.11 baseline and live telemetry sinks",
		cells: demandCells,
		sim:   trafficSim,
	},
	{
		name:  "faults",
		why:   "CBR demand under a fault storm: crash failover, degraded re-zero-forcing, drops and retransmissions",
		cells: faultCells,
		sim:   trafficSim,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- scaling ----

// scalingCell is one Fig. 9 topology: N APs serving N clients.
type scalingCell struct {
	nAPs   int
	bin    experiment.SNRBin
	mcs    phy.MCS
	seed   int64
	rounds int

	n        *core.Network
	blBps    float64
	probed   phy.MCS
	probedOK bool
}

// scalingBins pairs each SNR bin with the rate its timed frames use: the
// rate the set-up probe picks most often in that bin. The rate is fixed so
// that every seed times the same frame lengths; the probe's own pick varies
// with the topology.
var scalingBins = []struct {
	bin experiment.SNRBin
	mcs phy.MCS
}{{experiment.HighSNR, phy.MCS7}, {experiment.LowSNR, phy.MCS3}}

func scalingCells(seed int64, toy bool) []cell {
	aps, bins, rounds := []int{2, 4, 6, 8, 10}, scalingBins, 4
	if toy {
		aps, bins, rounds = []int{2, 3}, bins[:1], 1
	}
	var cells []cell
	for _, b := range bins {
		for _, n := range aps {
			cells = append(cells, &scalingCell{nAPs: n, bin: b.bin, mcs: b.mcs, seed: cellSeed(seed, len(cells)), rounds: rounds})
		}
	}
	return cells
}

func (c *scalingCell) ops() int { return c.rounds }

func (c *scalingCell) setup(tr *tracer) error {
	cfg := core.DefaultConfig(c.nAPs, c.nAPs, c.bin.Lo, c.bin.Hi)
	cfg.Seed = c.seed
	cfg.WellConditioned = true
	n, err := newNetwork(tr, cfg)
	if err != nil {
		return err
	}
	if err := measureAndPrecode(tr, n); err != nil {
		return err
	}
	s := tr.begin("baseline.EqualShareThroughput")
	c.blBps, _, err = baseline.New(n).EqualShareThroughput(experiment.PayloadBytes)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.ProbeAndSelectRate")
	c.probed, c.probedOK, err = n.ProbeAndSelectRate(256)
	tr.end(s)
	c.n = n
	return err
}

func (c *scalingCell) run(tr *tracer, out *cellOut) {
	src := rng.New(c.seed)
	name := fmt.Sprintf("core.JointTransmit.N%d", c.nAPs)
	var bits float64
	var airtime int64
	for r := 0; r < c.rounds; r++ {
		payloads := make([][]byte, c.nAPs)
		for j := range payloads {
			payloads[j] = src.Bytes(make([]byte, experiment.PayloadBytes))
		}
		s := tr.begin(name)
		res, err := c.n.JointTransmit(payloads, c.mcs)
		tr.end(s)
		out.ops++
		if err != nil {
			out.fail(err)
			continue
		}
		out.word(uint64(res.MCS))
		out.word(uint64(res.AirtimeSamples))
		airtime += res.AirtimeSamples
		var bad error
		for j, ok := range res.OK {
			if !ok {
				out.word(0)
				continue
			}
			if !bytes.Equal(res.Frames[j].Payload, payloads[j]) {
				bad = fmt.Errorf("N=%d round %d: stream %d decoded with a good FCS but wrong bytes", c.nAPs, r, j)
			}
			out.word(1)
			out.float(units.Ratio(res.Frames[j].SNRdB, 1))
			bits += float64(8 * len(payloads[j]))
		}
		if bad != nil {
			out.fail(bad)
		}
	}
	mbps := bits / units.Duration(units.Ticks(airtime), c.n.Cfg.SampleRate) / 1e6
	if !finite(mbps) {
		out.fail(fmt.Errorf("N=%d: goodput %v", c.nAPs, mbps))
	}
	out.float(c.blBps)
	out.word(uint64(c.probed))
	if c.probedOK {
		out.word(1)
	}
	out.sample("goodput_mbps", mbps)
	out.sample("dot11_mbps", c.blBps/1e6)
	out.registry(c.n.Metrics())
}

func scalingSim(s samples) []simValue {
	return []simValue{
		{"goodput_mbps", "Mb/s", stats.Mean(s["goodput_mbps"])},
		{"gain_x", "x", sum(s["goodput_mbps"]) / sum(s["dot11_mbps"])},
	}
}

// ---- remeasure ----

// remeasureCell is one 8-AP topology whose clients keep moving: every step
// ages each client's links, re-measures, re-precodes through the
// incremental ZF cache and sends one nulled packet.
type remeasureCell struct {
	nAPs, steps int
	seed        int64
	n           *core.Network
}

// remeasureRho is the per-step correlation of a moving client's links: the
// channel drifts a little between steps, the small-delta case the
// incremental ZF cache is built for.
const remeasureRho = 0.995

func remeasureCells(seed int64, toy bool) []cell {
	topologies, steps := 4, 20
	if toy {
		topologies, steps = 1, 2
	}
	cells := make([]cell, topologies)
	for i := range cells {
		cells[i] = &remeasureCell{nAPs: 8, steps: steps, seed: cellSeed(seed, i)}
	}
	return cells
}

func (c *remeasureCell) ops() int { return c.steps }

func (c *remeasureCell) setup(tr *tracer) error {
	cfg := core.DefaultConfig(c.nAPs, c.nAPs, experiment.HighSNR.Lo, experiment.HighSNR.Hi)
	cfg.Seed = c.seed
	cfg.WellConditioned = true
	n, err := newNetwork(tr, cfg)
	if err != nil {
		return err
	}
	c.n = n
	return measureAndPrecode(tr, n)
}

func (c *remeasureCell) run(tr *tracer, out *cellOut) {
	for step := 0; step < c.steps; step++ {
		st := tr.begin("remeasure.step")
		for cl := 0; cl < c.nAPs; cl++ {
			s := tr.begin("core.EvolveClientLinks")
			c.n.EvolveClientLinks(cl, remeasureRho)
			tr.end(s)
		}
		inr := math.NaN()
		err := measureAndPrecode(tr, c.n)
		if err == nil {
			s := tr.begin("core.NullingINR")
			inr, err = c.n.NullingINR(step%c.nAPs, 200, phy.MCS0)
			tr.end(s)
		}
		tr.end(st)
		out.ops++
		db := 10 * math.Log10(inr)
		switch {
		case err != nil:
			out.fail(err)
		case !finite(db):
			out.fail(fmt.Errorf("step %d: INR %v", step, inr))
		default:
			out.float(inr)
			out.sample("inr_db", db)
		}
	}
	out.registry(c.n.Metrics())
}

func remeasureSim(s samples) []simValue {
	return []simValue{{"inr_db", "dB", stats.Median(s["inr_db"])}}
}

// ---- demand and faults ----

// trafficCell is one topology served twice, by MegaMIMO and by the 802.11
// baseline, over two identically seeded networks fed the same demand.
type trafficCell struct {
	nAPs     int
	seed     int64
	profile  traffic.Profile
	seconds  float64
	faults   float64 // fault-storm intensity, events per simulated second; 0 = none
	tele     bool    // stream the MegaMIMO flight recorder through live sinks
	mm, base *trafficSide
}

// trafficSide is one system's network and engine.
type trafficSide struct {
	sys  traffic.System
	n    *core.Network
	eng  *traffic.Engine
	sink *tracefmt.StreamSink
	mon  *tracefmt.Monitor
	meta tracefmt.Meta
}

func demandCells(seed int64, toy bool) []cell {
	topologies, seconds := 8, 0.025
	if toy {
		topologies, seconds = 1, 0.005
	}
	cells := make([]cell, topologies)
	for i := range cells {
		cells[i] = &trafficCell{nAPs: 4, seed: cellSeed(seed, i), profile: traffic.NewPoisson(4e6, 300), seconds: seconds, tele: true}
	}
	return cells
}

// faultStaleness is the faults workload's sync-abstain budget, 1 ms instead
// of the default 10 ms, so that the storm's few-millisecond sync-header
// outages make slaves abstain rather than only extrapolate.
const faultStaleness units.Ticks = 10_000

func faultCells(seed int64, toy bool) []cell {
	topologies, seconds := 16, 0.01
	if toy {
		topologies, seconds = 1, 0.005
	}
	cells := make([]cell, topologies)
	for i := range cells {
		cells[i] = &trafficCell{nAPs: 4, seed: cellSeed(seed, i), profile: traffic.NewCBR(6e6, 1500), seconds: seconds, faults: 300}
	}
	return cells
}

func (c *trafficCell) ops() int { return 2 }

func (c *trafficCell) setup(tr *tracer) error {
	var err error
	if c.mm, err = c.side(tr, traffic.SystemMegaMIMO); err != nil {
		return err
	}
	if c.base, err = c.side(tr, traffic.SystemTDMA); err != nil {
		_, _ = c.mm.close() // the set-up error is the one to report
		return err
	}
	return nil
}

func (c *trafficCell) side(tr *tracer, sys traffic.System) (*trafficSide, error) {
	cfg := core.DefaultConfig(c.nAPs, c.nAPs, experiment.HighSNR.Lo, experiment.HighSNR.Hi)
	cfg.Seed = c.seed
	cfg.WellConditioned = true
	if c.faults > 0 {
		cfg.SyncStalenessSamples = faultStaleness
	}
	n, err := newNetwork(tr, cfg)
	if err != nil {
		return nil, err
	}
	sd := &trafficSide{sys: sys, n: n}
	tcfg := traffic.Config{System: sys, Seed: c.seed + 104729}
	if c.tele && sys == traffic.SystemMegaMIMO {
		sd.meta = tracefmt.Meta{SampleRate: cfg.SampleRate, CarrierHz: cfg.CarrierHz, APs: c.nAPs, Clients: c.nAPs}
		if sd.sink, err = tracefmt.NewStreamSink(io.Discard, sd.meta, tracefmt.StreamOptions{}); err != nil {
			return nil, err
		}
		sd.mon = tracefmt.NewMonitor(sd.meta, tracefmt.DefaultBudget(), tracefmt.DefaultMonitorWindow)
		n.Trace().SetSink(core.TeeSinks(sd.sink, sd.mon))
		n.Trace().Enable(65536)
		tcfg.Sampler = metrics.NewSampler(n.Metrics())
	}
	if err := c.prepare(tr, sd, tcfg); err != nil {
		_, _ = sd.close() // the set-up error is the one to report
		return nil, err
	}
	return sd, nil
}

func (c *trafficCell) prepare(tr *tracer, sd *trafficSide, tcfg traffic.Config) error {
	n := sd.n
	if err := measureAndPrecode(tr, n); err != nil {
		return err
	}
	tcfg.Profiles = make([]traffic.Profile, n.NumStreams())
	for i := range tcfg.Profiles {
		tcfg.Profiles[i] = c.profile
	}
	if c.faults > 0 {
		start := n.Now()
		tcfg.Faults = fault.Scenario{
			Seed:       c.seed + 13,
			Start:      start,
			Horizon:    start + int64(units.TicksIn(c.seconds, n.Cfg.SampleRate)),
			SampleRate: n.Cfg.SampleRate,
			NumAPs:     c.nAPs,
			NumStreams: n.NumStreams(),
			Intensity:  c.faults,
		}.Plan()
	}
	var err error
	if sd.eng, err = traffic.New(n, tcfg); err != nil {
		return err
	}
	s := tr.begin("traffic.Engine.Prepare")
	err = sd.eng.Prepare()
	tr.end(s)
	return err
}

// close stops the side's stream sink, if any, and returns the lines it
// dropped and its error.
func (sd *trafficSide) close() (int64, error) {
	if sd.sink == nil {
		return 0, nil
	}
	err := sd.sink.Close()
	dropped := sd.sink.Dropped()
	sd.sink = nil
	return dropped, err
}

func (c *trafficCell) run(tr *tracer, out *cellOut) {
	var mm, base *traffic.Report
	for _, sd := range []*trafficSide{c.mm, c.base} {
		name := "traffic.Engine.Run.megamimo"
		if sd.sys == traffic.SystemTDMA {
			name = "traffic.Engine.Run.802_11"
		}
		s := tr.begin(name)
		rep, err := sd.eng.Run(c.seconds)
		dropped, cerr := sd.close()
		tr.end(s)
		out.counts["tracefmt.sink_dropped"] += float64(dropped)
		if err == nil {
			err = cerr
		}
		out.ops++
		if err == nil {
			err = checkReport(rep)
		}
		if err != nil {
			out.fail(fmt.Errorf("%s: %w", sd.sys, err))
			continue
		}
		digestReport(out, rep)
		if sd.sys == traffic.SystemTDMA {
			base = rep
			continue
		}
		mm = rep
		out.registry(sd.n.Metrics())
		out.counts["mac.rounds"] += float64(rep.Rounds)
		out.counts["traffic.backlog"] += float64(rep.Backlog)
		if sd.mon != nil {
			out.counts["tracefmt.events"] += float64(sd.mon.Events())
		}
	}
	if mm == nil || base == nil {
		return
	}
	var offered, delivered int
	for _, cr := range mm.Clients {
		offered += cr.OfferedPackets
		delivered += cr.DeliveredPackets
	}
	out.sample("goodput_mbps", mm.AggregateDeliveredBps/1e6)
	out.sample("dot11_mbps", base.AggregateDeliveredBps/1e6)
	out.sample("p95_latency_ms", worstP95(mm))
	out.sample("offered", float64(offered))
	out.sample("delivered", float64(delivered))
}

// checkReport verifies a run's packet accounting: every offered packet is
// delivered, failed, dropped or still queued, and every rate is finite.
func checkReport(r *traffic.Report) error {
	var offered, settled int
	for _, c := range r.Clients {
		offered += c.OfferedPackets
		settled += c.DeliveredPackets + c.FailedPackets + c.DroppedPackets
		if !finite(c.DeliveredBps) || c.DeliveredPackets > c.OfferedPackets {
			return fmt.Errorf("stream %d: %d of %d packets delivered at %v b/s", c.Stream, c.DeliveredPackets, c.OfferedPackets, c.DeliveredBps)
		}
	}
	if settled+r.Backlog != offered {
		return fmt.Errorf("%d packets offered but %d settled and %d queued", offered, settled, r.Backlog)
	}
	if !finite(r.AggregateDeliveredBps) || !finite(r.Fairness) {
		return fmt.Errorf("delivered %v b/s, fairness %v", r.AggregateDeliveredBps, r.Fairness)
	}
	return nil
}

func digestReport(out *cellOut, r *traffic.Report) {
	out.word(uint64(r.Rounds))
	out.word(uint64(r.Backlog))
	for _, c := range r.Clients {
		out.word(uint64(c.OfferedPackets))
		out.word(uint64(c.DeliveredPackets))
		out.word(uint64(c.FailedPackets))
		out.word(uint64(c.DroppedPackets))
		out.float(c.P50LatencyMs)
		out.float(c.P95LatencyMs)
		out.float(c.JitterMs)
	}
}

// worstP95 is the highest per-client p95 latency of a run, 0 when nothing
// was delivered.
func worstP95(r *traffic.Report) float64 {
	var worst float64
	for _, c := range r.Clients {
		if c.P95LatencyMs > worst {
			worst = c.P95LatencyMs
		}
	}
	return worst
}

func trafficSim(s samples) []simValue {
	return []simValue{
		{"goodput_mbps", "Mb/s", stats.Median(s["goodput_mbps"])},
		{"gain_x", "x", stats.Median(s["goodput_mbps"]) / stats.Median(s["dot11_mbps"])},
		{"p95_latency_ms", "sim_ms", stats.Median(s["p95_latency_ms"])},
		{"delivery_ratio", "ratio", sum(s["delivered"]) / sum(s["offered"])},
	}
}
