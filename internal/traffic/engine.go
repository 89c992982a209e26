package traffic

import (
	"fmt"
	"strings"

	"megamimo/internal/baseline"
	"megamimo/internal/core"
	"megamimo/internal/fault"
	"megamimo/internal/mac"
	"megamimo/internal/metrics"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/stats"
	"megamimo/internal/units"
)

// System selects which MAC serves the demand.
type System int

const (
	// SystemMegaMIMO serves the shared queue with joint transmissions.
	SystemMegaMIMO System = iota
	// SystemTDMA models the 802.11 baseline: one AP at a time, clients
	// served round-robin for an equal medium share (§11's accounting).
	SystemTDMA
)

// String names the system.
func (s System) String() string {
	if s == SystemTDMA {
		return "802.11"
	}
	return "megamimo"
}

// Config parameterizes an Engine.
type Config struct {
	// System picks the MAC under test.
	System System
	// Profiles holds one demand profile per stream (client antenna);
	// its length must equal the network's stream count.
	Profiles []Profile
	// Seed drives every random draw (arrival processes, payloads) via
	// internal/rng splits — same seed, same byte-identical run.
	Seed int64
	// Faults, when non-nil, is the seeded fault schedule replayed against
	// the run: the engine applies due events every iteration and handles
	// the client-churn ones itself.
	Faults *fault.Plan
	// Sampler, when non-nil, snapshots the network's metrics registry on
	// the ether clock every SampleEvery service rounds (and once at the
	// end of the run), building the streaming time series.
	Sampler *metrics.Sampler
	// SampleEvery is the sampling cadence in service rounds
	// (0 = DefaultSampleEvery). Only meaningful with Sampler set.
	SampleEvery int
	// OnRound, when non-nil, runs after every served round (after its
	// metrics sample). Returning an error stops the run and propagates it
	// to the caller — the soak harness hooks checkpointing here and uses a
	// sentinel error to interrupt a run at an exact round for kill/resume
	// testing.
	OnRound func(rounds int) error
}

// DefaultSampleEvery is the metrics-sampling cadence when a Sampler is
// attached without an explicit round interval.
const DefaultSampleEvery = 64

// ClientReport is one stream's closed-loop accounting.
type ClientReport struct {
	Stream                                                          int
	OfferedPackets, DeliveredPackets, FailedPackets, DroppedPackets int
	OfferedBps, DeliveredBps                                        float64
	// P50/P95 latency in milliseconds from enqueue to ACK; NaN when
	// nothing was delivered.
	P50LatencyMs, P95LatencyMs float64
	// JitterMs is the mean absolute difference of successive latencies.
	JitterMs float64
}

// Report is the outcome of one Engine.Run window.
type Report struct {
	System  System
	Seconds float64
	Clients []ClientReport
	// Aggregate offered and delivered load across all streams.
	AggregateOfferedBps, AggregateDeliveredBps float64
	// Fairness is Jain's index over per-stream delivered throughput.
	Fairness float64
	// Rounds counts MAC service rounds; Backlog is what remained queued
	// at the horizon.
	Rounds, Backlog int
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %.3fs window  offered %.2f Mb/s  delivered %.2f Mb/s  fairness %.3f\n",
		r.System, r.Seconds, r.AggregateOfferedBps/1e6, r.AggregateDeliveredBps/1e6, r.Fairness)
	fmt.Fprintf(&b, "%-6s  %-9s  %-9s  %-7s  %-7s  %-9s  %-9s  %-9s\n",
		"stream", "off Mb/s", "del Mb/s", "drops", "fails", "p50 ms", "p95 ms", "jitter ms")
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "%-6d  %-9.2f  %-9.2f  %-7d  %-7d  %-9.3f  %-9.3f  %-9.3f\n",
			c.Stream, c.OfferedBps/1e6, c.DeliveredBps/1e6,
			c.DroppedPackets, c.FailedPackets,
			c.P50LatencyMs, c.P95LatencyMs, c.JitterMs)
	}
	return b.String()
}

// LatencyBuckets returns the delivery-latency histogram bounds in
// milliseconds.
func LatencyBuckets() []float64 {
	return []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
}

// tdmaLink caches the 802.11 baseline's per-stream unicast rate decision.
type tdmaLink struct {
	mcs phy.MCS
	ap  int
	ok  bool
}

// Engine drives one system closed-loop: generate arrivals on the ether
// clock, feed the MAC queue, serve rounds, consume ACKs, and account
// per-client outcomes. One engine owns one network — run the comparison
// by building two identically seeded networks, one engine each.
type Engine struct {
	net  *core.Network
	cfg  Config
	gens []*gen

	queue *mac.Queue     // shared downlink queue being served
	sched *mac.Scheduler // MegaMIMO service
	uni   *baseline.Unicast
	cont  *mac.Contention
	links []tdmaLink // TDMA rate cache, filled by prepare
	tq    mac.Queue  // TDMA-owned queue storage
	rr    int        // TDMA round-robin cursor

	payloads [][]byte // per-stream payload template (content is irrelevant)

	// Per-stream accounting.
	offered, delivered, failed, dropped []int
	latencies                           [][]float64 // ms, in delivery order

	rounds int
	// Run window, set by Run and carried through checkpoints so a resumed
	// run serves to the exact same horizon and normalizes its report over
	// the exact same float seconds.
	runStart, horizon int64
	runSeconds        float64

	mArrive  *metrics.Counter
	mDrops   *metrics.Counter
	hLatency *metrics.Histogram

	// Fault machinery: inj replays cfg.Faults; inactive marks streams
	// whose client has left (arrivals discarded until rejoin).
	inj      *fault.Injector
	inactive []bool
}

// New builds an engine over an already measured network.
func New(net *core.Network, cfg Config) (*Engine, error) {
	streams := net.NumStreams()
	if len(cfg.Profiles) != streams {
		return nil, fmt.Errorf("traffic: %d profiles for %d streams", len(cfg.Profiles), streams)
	}
	e := &Engine{
		net:       net,
		cfg:       cfg,
		gens:      make([]*gen, streams),
		payloads:  make([][]byte, streams),
		offered:   make([]int, streams),
		delivered: make([]int, streams),
		failed:    make([]int, streams),
		dropped:   make([]int, streams),
		latencies: make([][]float64, streams),
		links:     make([]tdmaLink, streams),
	}
	root := rng.New(cfg.Seed)
	start := net.Now()
	for i := 0; i < streams; i++ {
		src := root.Split(uint64(i))
		e.gens[i] = newGen(cfg.Profiles[i], src, net.Cfg.SampleRate, start)
		size := cfg.Profiles[i].PacketBytes
		if size <= 0 {
			size = DefaultPacketBytes
		}
		e.payloads[i] = src.Bytes(make([]byte, size))
	}
	switch cfg.System {
	case SystemTDMA:
		e.uni = baseline.New(net)
		e.cont = mac.NewContention(net.Cfg.SampleRate, cfg.Seed^0x7dfa)
		e.queue = &e.tq
	default:
		e.sched = mac.NewScheduler(net, cfg.Seed^0x51ed)
		e.queue = &e.sched.Queue
	}
	m := net.Metrics()
	e.mArrive = m.Counter("traffic_arrivals_total")
	e.mDrops = m.Counter("traffic_drops_total")
	e.hLatency = m.Histogram("traffic_latency_ms", LatencyBuckets())
	e.inactive = make([]bool, streams)
	if cfg.Faults != nil {
		e.inj = fault.NewInjector(net, cfg.Faults)
	}
	return e, nil
}

// Prepare resolves rates before the measurement window opens so neither
// system pays setup airtime inside it: MegaMIMO runs its probe
// transmission, TDMA computes per-stream unicast rates from the
// measurement (no airtime). Run calls it; the checkpoint restore path
// calls it explicitly while rebuilding, before overwriting state.
func (e *Engine) Prepare() error {
	if e.cfg.System == SystemTDMA {
		for i := range e.links {
			mcs, ap, ok, err := e.uni.SelectRate(i)
			if err != nil {
				return err
			}
			e.links[i] = tdmaLink{mcs: mcs, ap: ap, ok: ok}
		}
		return nil
	}
	return e.sched.EnsureRate()
}

// pump admits every arrival due at or before now into the queue.
func (e *Engine) pump(now int64) {
	for i, g := range e.gens {
		for g.peek() <= now {
			at := g.peek()
			n := g.pop()
			if e.inactive[i] {
				continue // departed client: its demand left with it
			}
			for k := 0; k < n; k++ {
				e.offered[i]++
				e.mArrive.Inc()
				bits := int64(8 * len(e.payloads[i]))
				client := i / e.net.Cfg.AntennasPerClient
				p := &mac.Packet{
					Stream:       i,
					Payload:      e.payloads[i],
					DesignatedAP: e.net.StrongestAP(i),
					EnqueuedAt:   at,
				}
				e.queue.Push(p)
				e.net.Trace().Emit(at, core.KindDemand,
					core.TraceAttrs{Client: client, Stream: i, Pkt: p.Seq, QueueDepth: e.queue.Len(), Bits: bits, OK: true},
					"")
			}
		}
	}
}

// recordDelivery accounts one ACKed packet.
func (e *Engine) recordDelivery(p *mac.Packet, deliveredAt int64) {
	e.delivered[p.Stream]++
	ms := units.Duration(units.Ticks(deliveredAt-p.EnqueuedAt), e.net.Cfg.SampleRate) * 1e3
	e.latencies[p.Stream] = append(e.latencies[p.Stream], ms)
	e.hLatency.Observe(ms)
}

// serveMegaMIMO runs one joint-transmission round.
func (e *Engine) serveMegaMIMO() error {
	res, err := e.sched.Step()
	if err != nil {
		return err
	}
	for _, p := range res.Delivered {
		e.recordDelivery(p, res.DeliveredAt)
	}
	for _, p := range res.Failed {
		e.failed[p.Stream]++
	}
	return nil
}

// serveTDMA gives the next backlogged stream (round-robin) one unicast
// attempt from its strongest AP — the equal-share 802.11 baseline.
func (e *Engine) serveTDMA() error {
	streams := len(e.gens)
	var p *mac.Packet
	for k := 0; k < streams; k++ {
		s := (e.rr + k) % streams
		if q := e.queue.NextForStream(s); q != nil {
			p, e.rr = q, s+1
			break
		}
	}
	if p == nil {
		return nil
	}
	link := e.links[p.Stream]
	if !e.net.APLive(link.ap) {
		// The serving AP crashed: re-associate with the strongest live AP
		// (StrongestAP skips crashed APs) and cache the new rate.
		mcs, ap, ok, err := e.uni.SelectRate(p.Stream)
		if err != nil {
			return err
		}
		link = tdmaLink{mcs: mcs, ap: ap, ok: ok}
		e.links[p.Stream] = link
	}
	if !link.ok {
		// Dead spot: the baseline cannot deliver this stream at any
		// rate; the packet burns its attempts without airtime.
		e.queue.Remove(p)
		e.failed[p.Stream]++
		e.net.AdvanceTime(1)
		return nil
	}
	e.net.AdvanceTime(e.cont.BackoffSamples(1))
	frame, _, err := e.uni.Transmit(p.Stream, link.ap, p.Payload, link.mcs)
	if err != nil {
		return err
	}
	if frame != nil && frame.FCSOK {
		p.Delivered = true
		e.queue.Remove(p)
		e.recordDelivery(p, e.net.Now())
		return nil
	}
	p.Attempts++
	if p.Attempts >= mac.DefaultMaxAttempts {
		e.queue.Remove(p)
		e.failed[p.Stream]++
	}
	return nil
}

// Run drives the closed loop for a simulated window of the given length
// and reports per-client outcomes. Arrivals beyond the horizon never
// enter; packets still queued at the horizon count as backlog, not
// delivered — that is what bends the saturation curve.
func (e *Engine) Run(seconds float64) (*Report, error) {
	if err := e.Prepare(); err != nil {
		return nil, err
	}
	start := e.net.Now()
	e.runStart = start
	e.horizon = start + int64(units.TicksIn(seconds, e.net.Cfg.SampleRate))
	e.runSeconds = seconds
	e.net.Trace().Emit(start, core.KindTraffic, core.TraceAttrs{},
		"workload start: %s, %d streams, %.3fs window", e.cfg.System, len(e.gens), seconds)
	return e.loop()
}

// ResumeRun continues a run restored from a checkpoint to its original
// horizon. The engine must have been restored first (RestoreSnapshot
// carries the run window); the "workload start" trace event is not
// re-emitted — the interrupted run already streamed it, so a resumed
// trace tail stays byte-identical to the uninterrupted run's.
func (e *Engine) ResumeRun() (*Report, error) {
	if e.horizon == 0 {
		return nil, fmt.Errorf("traffic: ResumeRun without a restored run window")
	}
	return e.loop()
}

// loop is the shared service loop: pump arrivals, serve rounds, sample,
// until the horizon.
func (e *Engine) loop() (*Report, error) {
	for e.net.Now() < e.horizon {
		now := e.net.Now()
		e.applyFaults(now)
		e.pump(now)
		if e.queue.Len() == 0 {
			next := never
			for _, g := range e.gens {
				if g.peek() < next {
					next = g.peek()
				}
			}
			// Idle skips stop at the next scheduled fault/recovery so
			// restarts and rejoins never fire late.
			if e.inj != nil {
				if at, ok := e.inj.NextAt(); ok && at > now && at < next {
					next = at
				}
			}
			if next >= e.horizon {
				break
			}
			e.net.AdvanceTime(next - now)
			continue
		}
		e.rounds++
		var err error
		if e.cfg.System == SystemTDMA {
			err = e.serveTDMA()
		} else {
			err = e.serveMegaMIMO()
		}
		if err != nil {
			return nil, err
		}
		e.maybeSample(false)
		if e.cfg.OnRound != nil {
			if err := e.cfg.OnRound(e.rounds); err != nil {
				return nil, err
			}
		}
	}
	e.maybeSample(true)
	e.net.Trace().Emit(e.net.Now(), core.KindTraffic,
		core.TraceAttrs{QueueDepth: e.queue.Len(), OK: e.queue.Len() == 0},
		"workload end: %d rounds, %d backlog", e.rounds, e.queue.Len())
	return e.report(e.runSeconds), nil
}

// maybeSample takes a metrics time-series point when a sampler is wired:
// every SampleEvery service rounds, plus a final point at the horizon so
// the series always closes on the run's end state. Each point is also
// marked on the trace timeline as a metrics instant.
func (e *Engine) maybeSample(final bool) {
	if e.cfg.Sampler == nil {
		return
	}
	every := e.cfg.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	if !final && e.rounds%every != 0 {
		return
	}
	now := e.net.Now()
	e.cfg.Sampler.Sample(now)
	e.net.Trace().Emit(now, core.KindMetrics,
		core.TraceAttrs{QueueDepth: e.queue.Len()},
		"metrics sample: round %d", e.rounds)
}

// applyFaults fires every fault-plan event due by now. Network and
// backend faults apply inside the injector; client churn is engine state:
// a departing client's queued packets are purged (counted as drops) and
// its arrivals discarded until the matching rejoin.
func (e *Engine) applyFaults(now int64) {
	if e.inj == nil {
		return
	}
	for _, ev := range e.inj.Apply(now) {
		switch ev.Kind {
		case fault.KindClientLeave:
			if ev.Stream < 0 || ev.Stream >= len(e.inactive) {
				continue
			}
			e.inactive[ev.Stream] = true
			for range e.queue.DropStream(ev.Stream) {
				e.dropped[ev.Stream]++
				e.mDrops.Inc()
			}
		case fault.KindClientJoin:
			if ev.Stream >= 0 && ev.Stream < len(e.inactive) {
				e.inactive[ev.Stream] = false
			}
		case fault.KindAPCrash, fault.KindAPRestart, fault.KindLeadFail,
			fault.KindBackendDrop, fault.KindBackendDelay, fault.KindBackendJitter,
			fault.KindBackendPartition, fault.KindSyncCorrupt:
			// Applied inside the injector (network/bus state); nothing to
			// do at the workload layer.
		}
	}
}

// report folds the accounting into a Report.
func (e *Engine) report(seconds float64) *Report {
	r := &Report{
		System:  e.cfg.System,
		Seconds: seconds,
		Clients: make([]ClientReport, len(e.gens)),
		Rounds:  e.rounds,
		Backlog: e.queue.Len(),
	}
	perStream := make([]float64, len(e.gens))
	for i := range e.gens {
		bits := float64(8 * len(e.payloads[i]))
		c := &r.Clients[i]
		c.Stream = i
		c.OfferedPackets = e.offered[i]
		c.DeliveredPackets = e.delivered[i]
		c.FailedPackets = e.failed[i]
		c.DroppedPackets = e.dropped[i]
		c.OfferedBps = float64(e.offered[i]) * bits / seconds
		c.DeliveredBps = float64(e.delivered[i]) * bits / seconds
		lats := e.latencies[i]
		pcts := stats.Percentiles(lats, 50, 95)
		c.P50LatencyMs, c.P95LatencyMs = pcts[0], pcts[1]
		var jitter float64
		for k := 1; k < len(lats); k++ {
			d := lats[k] - lats[k-1]
			if d < 0 {
				d = -d
			}
			jitter += d
		}
		if len(lats) > 1 {
			c.JitterMs = jitter / float64(len(lats)-1)
		}
		perStream[i] = c.DeliveredBps
		r.AggregateOfferedBps += c.OfferedBps
		r.AggregateDeliveredBps += c.DeliveredBps
	}
	r.Fairness = stats.JainFairness(perStream)
	return r
}
