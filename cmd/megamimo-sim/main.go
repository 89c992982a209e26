// Command megamimo-sim runs one configurable MegaMIMO network end to end:
// measurement, precoding, rate adaptation and a batch of joint
// transmissions, reporting per-stream delivery and throughput against the
// 802.11 baseline. With -workload it instead drives the network
// closed-loop from per-client demand profiles and reports throughput,
// latency and fairness for MegaMIMO vs the 802.11 baseline; -chaos replays
// a named fault-injection scenario against the closed loop and reports the
// degradation and recovery counters; -prom-out writes the final runtime
// telemetry registry as Prometheus text. -trace-out streams the flight
// recorder as JSONL, which megamimo-trace prints as a timeline or converts
// to Chrome trace-event format.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"megamimo/internal/air"
	"megamimo/internal/baseline"
	"megamimo/internal/checkpoint"
	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/fault"
	"megamimo/internal/mac"
	"megamimo/internal/metrics"
	"megamimo/internal/obs"
	"megamimo/internal/phy"
	"megamimo/internal/tracefmt"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// runConfig is one invocation: every flag binds straight into it. The
// embedded SoakConfig holds the run identity — topology, SNR band, seed,
// load, window, storm, drift and checkpoint cadence — in
// every mode, and its TracePath/SeriesPath are the -trace-out and
// -series-out files; the soak harness receives it as is.
type runConfig struct {
	experiment.SoakConfig
	packets         int
	workload, chaos string
	serveAddr       string
	serveWait       time.Duration
	promOut         string
	soak            bool
	workers         int
}

// parseFlags binds every command-line flag into one runConfig.
func parseFlags() *runConfig {
	c := &runConfig{}
	flag.IntVar(&c.APs, "aps", 4, "number of access points")
	flag.IntVar(&c.Clients, "clients", 4, "number of clients")
	flag.Float64Var(&c.SNRLoDB, "snr-lo", 18, "client SNR band low edge (dB)")
	flag.Float64Var(&c.SNRHiDB, "snr-hi", 24, "client SNR band high edge (dB)")
	flag.IntVar(&c.packets, "packets", 8, "packets per client")
	flag.IntVar(&c.PacketBytes, "size", 1500, "payload bytes")
	flag.Int64Var(&c.Seed, "seed", 1, "random seed")
	flag.StringVar(&c.workload, "workload", "", "drive a demand workload instead of a fixed batch: cbr|poisson|onoff|heavy")
	flag.StringVar(&c.chaos, "chaos", "", "replay a fault scenario against the closed loop: slave-crash|lead-crash|lossy|churn|mixed")
	flag.Float64Var(&c.LoadMbps, "load", 8, "workload offered load per client (Mb/s)")
	flag.Float64Var(&c.Seconds, "duration", 0.05, "workload window (simulated seconds)")
	flag.StringVar(&c.TracePath, "trace-out", "", "stream the flight-recorder trace to this file as events are recorded")
	flag.Float64Var(&c.DriftPPM, "drift-ppm", 0, "inject ±ppm oscillator drift: lead −ppm, slave APs +ppm (2×ppm relative); soak mode applies it at -soak-drift-at")
	flag.StringVar(&c.serveAddr, "serve", "", "serve /metrics /healthz /trace /debug/pprof on this address during the run")
	flag.DurationVar(&c.serveWait, "serve-wait", 0, "keep the observability server up this long after the run completes")
	flag.IntVar(&c.SampleEvery, "sample-every", 0, "workload/chaos/soak: snapshot the metrics registry every N service rounds (0 = 64)")
	flag.StringVar(&c.SeriesPath, "series-out", "", "write the sampled metrics time series as JSONL to this file")
	flag.StringVar(&c.promOut, "prom-out", "", "write the final metrics registry as Prometheus text to this file")
	flag.BoolVar(&c.soak, "soak", false, "run the resumable game-day soak harness (heavy load + fault storm + periodic checkpoints)")
	flag.IntVar(&c.CheckpointEvery, "checkpoint-every", 0, "soak: write a checkpoint every N service rounds (0 = no checkpoints)")
	flag.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "soak: directory for checkpoint files")
	flag.StringVar(&c.Resume, "resume", "", "soak: restore from this checkpoint and serve out the remaining window")
	flag.IntVar(&c.workers, "workers", 0, "soak: air-medium worker count (0 = GOMAXPROCS); output is byte-identical at any count")
	flag.Float64Var(&c.FaultsPerSec, "faults-per-sec", 0, "soak: fault-storm intensity (expected events per simulated second)")
	flag.Float64Var(&c.DriftAtSeconds, "soak-drift-at", 0, "soak: simulated seconds into the run to apply -drift-ppm")
	flag.Parse()
	return c
}

// validate rejects flag values outside the range a run can use, and
// flags the chosen mode would ignore.
func (c *runConfig) validate() error {
	switch {
	case c.PacketBytes < 1 || c.PacketBytes > phy.MaxPSDU:
		return fmt.Errorf("-size %d out of range 1..%d", c.PacketBytes, phy.MaxPSDU)
	case c.packets < 1:
		return fmt.Errorf("-packets %d must be at least 1", c.packets)
	case !(c.Seconds > 0):
		return fmt.Errorf("-duration %g must be positive", c.Seconds)
	case !(c.LoadMbps > 0):
		return fmt.Errorf("-load %g must be positive", c.LoadMbps)
	case !(c.SNRLoDB <= c.SNRHiDB):
		return fmt.Errorf("-snr-lo %g above -snr-hi %g", c.SNRLoDB, c.SNRHiDB)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("-checkpoint-every %d must not be negative", c.CheckpointEvery)
	case c.workers < 0:
		return fmt.Errorf("-workers %d must not be negative", c.workers)
	case c.SampleEvery < 0:
		return fmt.Errorf("-sample-every %d must not be negative", c.SampleEvery)
	case !(c.FaultsPerSec >= 0):
		return fmt.Errorf("-faults-per-sec %g must be a non-negative number", c.FaultsPerSec)
	case !(c.DriftAtSeconds >= 0):
		return fmt.Errorf("-soak-drift-at %g must be a non-negative number", c.DriftAtSeconds)
	}
	var err error
	mode := c.mode()
	unset := func(name string) bool {
		f := flag.Lookup(name)
		return f.Value.String() == f.DefValue
	}
	flag.Visit(func(f *flag.Flag) {
		rule, ok := modeFlags[f.Name]
		switch {
		case !ok || err != nil:
		case rule.modes != nil && !slices.Contains(rule.modes, mode):
			err = fmt.Errorf("-%s does not apply to a %s run", f.Name, mode)
		case rule.needs != "" && unset(rule.needs):
			err = fmt.Errorf("-%s does nothing without -%s", f.Name, rule.needs)
		}
	})
	return err
}

// mode names the run the flags select: -soak, else -chaos, else
// -workload, else one batch of packets.
func (c *runConfig) mode() string {
	switch {
	case c.soak:
		return "soak"
	case c.chaos != "":
		return "chaos"
	case c.workload != "":
		return "workload"
	}
	return "batch"
}

// modeFlags lists each flag only some runs read: the modes that read it
// (nil for every mode), and the flag it does nothing without, if any; every
// other flag applies to every run. A run refuses a flag it would ignore
// rather than run without what it asks for.
var modeFlags = map[string]struct {
	modes []string
	needs string
}{
	"packets":          {modes: []string{"batch"}},
	"prom-out":         {modes: []string{"batch", "workload", "chaos"}},
	"workload":         {modes: []string{"workload"}},
	"chaos":            {modes: []string{"chaos"}},
	"load":             {modes: []string{"workload", "chaos", "soak"}},
	"duration":         {modes: []string{"workload", "chaos", "soak"}},
	"sample-every":     {modes: []string{"workload", "chaos", "soak"}},
	"checkpoint-every": {modes: []string{"soak"}},
	"checkpoint-dir":   {modes: []string{"soak"}},
	"resume":           {modes: []string{"soak"}},
	"workers":          {modes: []string{"soak"}},
	"faults-per-sec":   {modes: []string{"soak"}},
	"soak-drift-at":    {modes: []string{"soak"}, needs: "drift-ppm"},
	"serve-wait":       {needs: "serve"},
}

func main() {
	c := parseFlags()
	if err := c.validate(); err != nil {
		fatal(err)
	}
	if c.soak {
		runSoak(c)
		return
	}

	cfg := c.CoreConfig()
	// Batch, workload and chaos runs draw the Haar-mixing ensemble of the
	// throughput figures; the soak keeps the iid links of CoreConfig.
	cfg.WellConditioned = true
	net, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network: %d APs, %d clients, %.0f-%.0f dB, %.0f MHz\n",
		c.APs, c.Clients, c.SNRLoDB, c.SNRHiDB, cfg.SampleRate/1e6)
	tel, err := newTelemetry(net, c)
	if err != nil {
		fatal(err)
	}
	if tel.file != nil || tel.server != nil {
		net.Trace().Enable(1 << 20)
	}
	if c.DriftPPM != 0 {
		net.SetAPDrift(units.PPM(c.DriftPPM))
		fmt.Printf("oscillator drift injected: lead %+.1f ppm, slaves %+.1f ppm (%.1f ppm relative)\n",
			-c.DriftPPM, c.DriftPPM, 2*math.Abs(c.DriftPPM))
	}

	if err := net.Measure(); err != nil {
		fatal(err)
	}
	fmt.Printf("measurement: H is %d×%d on %d subcarriers (reference t=%d)\n",
		net.Msmt.H[0].Rows, net.Msmt.H[0].Cols, len(net.Msmt.Bins), net.Msmt.RefMid)

	p, err := net.Precode(cfg.NoiseVar)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("precoder: zero-forcing, power scale k=%.3f (per-client signal %.1f dB over noise)\n",
		p.PowerScale, dB(p.PowerScale*p.PowerScale/cfg.NoiseVar))

	if c.chaos != "" {
		runChaos(net, c, tel)
		tel.finish()
		return
	}

	if c.workload != "" {
		runWorkload(net, cfg, c, tel.sampler)
		tel.finish()
		return
	}

	mcs, ok, err := net.ProbeAndSelectRate(256)
	if err != nil || !ok {
		// Flush the trace before dying: the rate probe's joint
		// transmissions already traced the slave measurements, and a sync
		// loop broken enough to kill every MCS is precisely what the
		// trace anomaly gate exists to diagnose.
		tel.finish()
		if err == nil {
			err = fmt.Errorf("no deliverable MCS at this SNR")
		}
		fatal(err)
	}
	fmt.Printf("rate adaptation: %v\n", mcs)

	sched := mac.NewScheduler(net, c.Seed)
	sched.MCS = mcs
	sched.FillQueue(c.packets, c.PacketBytes, c.Seed+7)
	st, err := sched.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\njoint transmissions: %d (airtime %.2f ms)\n",
		st.Transmissions, units.Duration(units.Ticks(st.AirtimeSamples), cfg.SampleRate)*1e3)
	fmt.Printf("delivered %d packets (%.0f bits), %d failed after retries\n",
		st.DeliveredPackets, st.DeliveredBits, st.FailedPackets)
	fmt.Printf("MegaMIMO throughput: %.1f Mb/s\n", st.ThroughputBps(cfg.SampleRate)/1e6)

	bl, per, err := baseline.New(net).EqualShareThroughput(c.PacketBytes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("802.11 equal-share baseline: %.1f Mb/s total (per client:", bl/1e6)
	for _, v := range per {
		fmt.Printf(" %.1f", v/1e6)
	}
	fmt.Println(")")
	if bl > 0 {
		fmt.Printf("gain: %.1fx with %d APs\n", st.ThroughputBps(cfg.SampleRate)/bl, c.APs)
	}
	tel.finish()
}

// runSoak drives experiment.RunSoak from the CLI: the long-horizon
// game-day run with periodic checkpoints, or — with -resume — the
// restored tail of one. On resume it prints the checkpoint's logical
// stream offsets, so a caller can splice the tail files onto an
// uninterrupted run's output at exactly the right byte.
func runSoak(c *runConfig) {
	air.SetWorkers(c.workers)
	if c.serveAddr != "" {
		srv, err := obs.New(obs.Config{Addr: c.serveAddr, Meta: tracefmt.MetaFor(c.CoreConfig())})
		if err != nil {
			fatal(err)
		}
		fmt.Println(srv)
		c.Server = srv
	}
	if c.Resume != "" {
		st, _, err := checkpoint.ReadAny(c.Resume)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("soak: resuming %s from round %d (t=%d, trace offset %d, series offset %d)\n",
			c.Resume, st.Rounds, st.Now, st.TraceBytes, st.SeriesBytes)
	} else {
		fmt.Printf("soak: %d APs, %d clients, %.1f Mb/s per client, %.3fs window, %.0f faults/s, checkpoint every %d rounds\n",
			c.APs, c.Clients, c.LoadMbps, c.Seconds, c.FaultsPerSec, c.CheckpointEvery)
	}
	res, err := experiment.RunSoak(c.SoakConfig)
	if res != nil {
		for _, p := range res.Checkpoints {
			fmt.Printf("checkpoint: %s\n", p)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(res.Report)
	fmt.Printf("\nsoak complete: %d rounds, %d checkpoints, trace %d bytes, series %d bytes\n",
		res.Rounds, len(res.Checkpoints), res.TraceBytes, res.SeriesBytes)
	if c.Server != nil {
		c.Server.MarkDone()
		if c.serveWait > 0 {
			fmt.Printf("observability server up for another %s\n", c.serveWait)
			time.Sleep(c.serveWait)
		}
		_ = c.Server.Close()
	}
}

// telemetry bundles the run's observability outputs: the -trace-out
// file, the series stream, the HTTP server, and the metrics time-series
// sampler. A zero surface set is valid — every method no-ops.
type telemetry struct {
	c          *runConfig
	net        *core.Network
	file       *tracefmt.StreamSink
	server     *obs.Server
	sampler    *metrics.Sampler
	samples    int
	series     *bufio.Writer
	seriesFile *os.File
	seriesErr  error
}

// newTelemetry opens the requested surfaces and attaches them to the
// network's tracer (the caller still enables the recorder). A -chaos run
// attaches the -trace-out file later, at its recovered tail. The sampler
// streams each sample to -series-out and publishes to the HTTP server,
// so /metrics tracks the run live at the workload sampling cadence.
func newTelemetry(net *core.Network, c *runConfig) (*telemetry, error) {
	meta := tracefmt.MetaFor(net.Cfg)
	tel := &telemetry{c: c, net: net}
	if c.TracePath != "" {
		f, err := tracefmt.Create(c.TracePath, meta, tracefmt.StreamOptions{
			Dropped: net.Metrics().Counter("trace_sink_dropped_total"),
		})
		if err != nil {
			return nil, err
		}
		tel.file = f
	}
	if c.serveAddr != "" {
		srv, err := obs.New(obs.Config{Addr: c.serveAddr, Meta: meta})
		if err != nil {
			return nil, err
		}
		tel.server = srv
		fmt.Println(srv)
	}
	if c.SeriesPath != "" {
		f, err := os.Create(c.SeriesPath)
		if err != nil {
			return nil, err
		}
		tel.series, tel.seriesFile = bufio.NewWriter(f), f
	}
	if c.SeriesPath != "" || tel.server != nil {
		tel.sampler = metrics.NewSampler(net.Metrics())
		tel.sampler.OnSample = tel.onSample
	}
	tel.attach(c.chaos == "")
	return tel, nil
}

// attach feeds the tracer's events to the HTTP server and, with file, to
// the -trace-out file.
func (tel *telemetry) attach(file bool) {
	var sinks []core.TraceSink
	if file && tel.file != nil {
		sinks = append(sinks, tel.file)
	}
	if tel.server != nil {
		sinks = append(sinks, tel.server)
	}
	tel.net.Trace().SetSink(core.TeeSinks(sinks...))
}

// onSample streams one sample to -series-out and publishes the registry
// to the HTTP server.
func (tel *telemetry) onSample(sm metrics.Sample) {
	tel.samples++
	if tel.series != nil && tel.seriesErr == nil {
		line, err := metrics.MarshalSample(sm)
		if err == nil {
			_, err = tel.series.Write(line)
		}
		tel.seriesErr = err
	}
	if tel.server != nil {
		_ = tel.server.PublishMetrics(tel.net.Metrics())
	}
}

// finish flushes every surface at the end of the run: the series and
// exposition files, the -trace-out file (fatal on a lost series or trace
// — a partial file must not pass for a complete one), and finally the
// HTTP server, which keeps serving the finished run's state for
// -serve-wait before closing.
func (tel *telemetry) finish() {
	if tel.sampler != nil && tel.samples == 0 {
		// Batch runs have no service rounds to pace sampling on; take the
		// one end-of-run point so the series is never empty.
		tel.sampler.Sample(tel.net.Now())
	}
	if tel.series != nil {
		err := tel.seriesErr
		if ferr := tel.series.Flush(); err == nil {
			err = ferr
		}
		if cerr := tel.seriesFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("series-out: %w", err))
		}
		fmt.Printf("metrics series: %d samples -> %s\n", tel.samples, tel.c.SeriesPath)
	}
	if tel.c.promOut != "" {
		f, err := os.Create(tel.c.promOut)
		if err != nil {
			fatal(err)
		}
		if err := tel.net.Metrics().WritePrometheus(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("prometheus exposition -> %s\n", tel.c.promOut)
	}
	if tel.file != nil {
		if err := tel.file.Close(); err != nil {
			fatal(fmt.Errorf("trace-out: %w", err))
		}
		fmt.Printf("trace: %s (%d lines dropped)\n", tel.c.TracePath, tel.file.Dropped())
	}
	if tel.server != nil {
		_ = tel.server.PublishMetrics(tel.net.Metrics())
		tel.server.MarkDone()
		if tel.c.serveWait > 0 {
			fmt.Printf("observability server up for another %s\n", tel.c.serveWait)
			time.Sleep(tel.c.serveWait)
		}
		_ = tel.server.Close()
	}
}

// runWorkload drives the measured network closed-loop from per-client
// demand profiles: MegaMIMO on the primary network, the 802.11 baseline
// on a second network built from the same seed (identical topology and
// channels), so both systems face the same demand.
func runWorkload(net *core.Network, cfg core.Config, c *runConfig, sampler *metrics.Sampler) {
	kind, err := traffic.ParseKind(c.workload)
	if err != nil {
		fatal(err)
	}
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.ProfileFor(kind, c.LoadMbps*1e6, c.PacketBytes)
	}
	tcfg := traffic.Config{
		System: traffic.SystemMegaMIMO, Profiles: profiles, Seed: c.Seed + 1,
		Sampler: sampler, SampleEvery: c.SampleEvery,
	}
	eng, err := traffic.New(net, tcfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nworkload: %s arrivals, %.1f Mb/s per client, %.3fs window\n\n", kind, c.LoadMbps, c.Seconds)
	mm, err := eng.Run(c.Seconds)
	if err != nil {
		fatal(err)
	}
	fmt.Print(mm)

	blNet, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := blNet.MeasureAndPrecode(); err != nil {
		fatal(err)
	}
	tcfg.System = traffic.SystemTDMA
	// The sampler reads the MegaMIMO network's registry; detach it before
	// the baseline run so that run's rounds don't append foreign points.
	tcfg.Sampler = nil
	blEng, err := traffic.New(blNet, tcfg)
	if err != nil {
		fatal(err)
	}
	bl, err := blEng.Run(c.Seconds)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(bl)
	if bl.AggregateDeliveredBps > 0 {
		fmt.Printf("\ngain under demand: %.1fx\n", mm.AggregateDeliveredBps/bl.AggregateDeliveredBps)
	}
}

// chaosPlan builds the named fault scenario's schedule: the fault lands 20%
// into the window and every effect ends by 60%, so the run always closes in
// a recovered steady state.
func chaosPlan(net *core.Network, scenario string, seconds float64, seed int64) (*fault.Plan, error) {
	start := net.Now()
	window := int64(units.TicksIn(seconds, net.Cfg.SampleRate))
	at := start + window/5
	until := start + (window*3)/5
	switch scenario {
	case "slave-crash":
		return &fault.Plan{Seed: seed, Events: []fault.Event{
			{At: at, Kind: fault.KindAPCrash, AP: len(net.APs) - 1, Until: until},
		}}, nil
	case "lead-crash":
		return &fault.Plan{Seed: seed, Events: []fault.Event{
			{At: at, Kind: fault.KindLeadFail, Until: until},
		}}, nil
	case "lossy":
		return &fault.Plan{Seed: seed, Events: []fault.Event{
			{At: at, Kind: fault.KindBackendDrop, Param: 0.3, Until: until},
			{At: at, Kind: fault.KindBackendJitter, Param: 50e-6 * units.Ratio(net.Cfg.SampleRate, 1), Until: until},
		}}, nil
	case "churn":
		return &fault.Plan{Seed: seed, Events: []fault.Event{
			{At: at, Kind: fault.KindClientLeave, Stream: net.NumStreams() - 1, Until: until},
		}}, nil
	case "mixed":
		return fault.Storm(net, seed, seconds, 400), nil
	}
	return nil, fmt.Errorf("unknown chaos scenario %q (slave-crash|lead-crash|lossy|churn|mixed)", scenario)
}

// runChaos replays a fault scenario against the MegaMIMO closed loop: the
// fault window runs first, then the -trace-out file is attached and a
// steady tail runs, so the file holds only the recovered state (the
// anomaly gate must pass on it) while seq and span IDs continue the
// run's numbering. The delivery rate covers both windows — packets lost
// to the faults stay lost.
func runChaos(net *core.Network, c *runConfig, tel *telemetry) {
	plan, err := chaosPlan(net, c.chaos, c.Seconds, c.Seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nchaos scenario %q: %d fault events over %.3fs\n", c.chaos, len(plan.Events), c.Seconds)
	for i, ev := range plan.Events {
		if i == 12 {
			fmt.Printf("  ... and %d more\n", len(plan.Events)-i)
			break
		}
		fmt.Println("  " + ev.String())
	}
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.NewCBR(c.LoadMbps*1e6, c.PacketBytes)
	}
	eng, err := traffic.New(net, traffic.Config{
		System:      traffic.SystemMegaMIMO,
		Profiles:    profiles,
		Seed:        c.Seed + 1,
		Faults:      plan,
		Sampler:     tel.sampler,
		SampleEvery: c.SampleEvery,
	})
	if err != nil {
		fatal(err)
	}
	rep, err := eng.Run(c.Seconds)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(rep)
	// Recovered steady tail: the same closed loop keeps going, traced to
	// the file from here on.
	tel.attach(true)
	tail, err := eng.Run(c.Seconds / 2)
	if err != nil {
		fatal(err)
	}
	m := net.Metrics()
	counter := func(name string) int64 { return m.Counter(name).Value() }
	fmt.Printf("\nchaos counters: faults=%d failovers=%d sync_abstains=%d degraded_rounds=%d backend_dropped=%d\n",
		counter("fault_injected_total"), counter("lead_failovers_total"),
		counter("sync_abstain_total"), counter("degraded_rounds_total"),
		counter("backend_dropped_total"))
	var off, del int
	for _, c := range tail.Clients {
		off += c.OfferedPackets
		del += c.DeliveredPackets
	}
	rate := 1.0
	if off > 0 {
		rate = float64(del) / float64(off)
	}
	fmt.Printf("chaos delivery rate: %.3f (delivered %d / offered %d packets)\n", rate, del, off)
}

func dB(x float64) float64 {
	if x <= 0 {
		return -999
	}
	return 10 * math.Log10(x)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "megamimo-sim:", err)
	os.Exit(1)
}
