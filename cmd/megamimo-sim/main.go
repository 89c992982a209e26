// Command megamimo-sim runs one configurable MegaMIMO network end to end:
// measurement, precoding, rate adaptation and a batch of joint
// transmissions, reporting per-stream delivery and throughput against the
// 802.11 baseline. With -workload it instead drives the network
// closed-loop from per-client demand profiles and reports throughput,
// latency and fairness for MegaMIMO vs the 802.11 baseline; -chaos replays
// a named fault-injection scenario against the closed loop and reports the
// degradation and recovery counters; -soak runs the resumable game-day
// soak with periodic checkpoints.
//
// Every mode writes its telemetry through one obs.Telemetry: -trace-out
// streams the flight recorder as JSONL (megamimo-trace prints it as a
// timeline or converts it to Chrome trace-event format), -series-out
// streams the sampled metrics series, and -serve exposes both live over
// HTTP until -serve-wait after the run. -prom-out writes the final
// metrics registry as Prometheus text.
package main

import (
	"bytes"
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
// load, window, storm, drift and checkpoint cadence — in every mode; its
// TracePath/SeriesPath are the -trace-out and -series-out files and its
// Server the -serve server. The soak harness receives it as is.
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
	if c.serveAddr != "" {
		srv, err := obs.New(obs.Config{Addr: c.serveAddr, Meta: tracefmt.MetaFor(c.CoreConfig())})
		if err != nil {
			fatal(err)
		}
		fmt.Println(srv)
		c.Server = srv
	}
	run := runNetwork
	if c.soak {
		run = runSoak
	}
	if err := run(c); err != nil {
		fatal(err)
	}
	if c.Server != nil {
		if c.serveWait > 0 {
			fmt.Printf("observability server up for another %s\n", c.serveWait)
			time.Sleep(c.serveWait)
		}
		_ = c.Server.Close()
	}
}

// runNetwork builds, measures and precodes one network and runs it in
// the chaos, workload or batch mode. Its telemetry opens with the network
// and is flushed however the run ends: a sync loop broken enough to kill
// every MCS is what the trace anomaly gate exists to diagnose.
func runNetwork(c *runConfig) (err error) {
	cfg := c.CoreConfig()
	// Batch, workload and chaos runs draw the Haar-mixing ensemble of the
	// throughput figures; the soak keeps the iid links of CoreConfig.
	cfg.WellConditioned = true
	net, err := core.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d APs, %d clients, %.0f-%.0f dB, %.0f MHz\n",
		c.APs, c.Clients, c.SNRLoDB, c.SNRHiDB, cfg.SampleRate/1e6)
	out := obs.Outputs{TracePath: c.TracePath, SeriesPath: c.SeriesPath, Server: c.Server}
	if c.TracePath != "" {
		out.Trace.Dropped = net.Metrics().Counter("trace_sink_dropped_total")
	}
	tel, err := obs.Open(net, out)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(c, net, tel); err == nil {
			err = ferr
		}
	}()
	// The sampler streams each point to -series-out and publishes the
	// registry to the server, so /metrics tracks the run live. A -chaos
	// run tees the -trace-out file in only for its recovered tail.
	var sampler *metrics.Sampler
	if c.SeriesPath != "" || c.Server != nil {
		sampler = metrics.NewSampler(net.Metrics())
		sampler.OnSample = tel.OnSample
	}
	tel.Tee(c.TracePath != "" && c.chaos == "")
	if c.TracePath != "" || c.Server != nil {
		net.Trace().Enable(1 << 20)
	}
	if c.DriftPPM != 0 {
		net.SetAPDrift(units.PPM(c.DriftPPM))
		fmt.Printf("oscillator drift injected: lead %+.1f ppm, slaves %+.1f ppm (%.1f ppm relative)\n",
			-c.DriftPPM, c.DriftPPM, 2*math.Abs(c.DriftPPM))
	}

	if err := net.Measure(); err != nil {
		return err
	}
	fmt.Printf("measurement: H is %d×%d on %d subcarriers (reference t=%d)\n",
		net.Msmt.H[0].Rows, net.Msmt.H[0].Cols, len(net.Msmt.Bins), net.Msmt.RefMid)
	p, err := net.Precode(cfg.NoiseVar)
	if err != nil {
		return err
	}
	fmt.Printf("precoder: zero-forcing, power scale k=%.3f (per-client signal %.1f dB over noise)\n",
		p.PowerScale, units.LinearToDB(p.PowerScale*p.PowerScale/cfg.NoiseVar))

	switch {
	case c.chaos != "":
		return runChaos(net, c, sampler, tel)
	case c.workload != "":
		return runWorkload(net, cfg, c, sampler)
	}
	err = runBatch(net, cfg, c)
	if sampler != nil {
		// Batch runs have no service rounds to pace sampling on; take the
		// one end-of-run point so the series is never empty.
		sampler.Sample(net.Now())
	}
	return err
}

// runBatch rate-adapts the network, sends -packets packets per client
// through the MAC scheduler and compares the throughput with the 802.11
// equal-share baseline.
func runBatch(net *core.Network, cfg core.Config, c *runConfig) error {
	mcs, ok, err := net.ProbeAndSelectRate(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no deliverable MCS at this SNR")
	}
	fmt.Printf("rate adaptation: %v\n", mcs)

	sched := mac.NewScheduler(net, c.Seed)
	sched.MCS = mcs
	sched.FillQueue(c.packets, c.PacketBytes, c.Seed+7)
	st, err := sched.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\njoint transmissions: %d (airtime %.2f ms)\n",
		st.Transmissions, units.Duration(units.Ticks(st.AirtimeSamples), cfg.SampleRate)*1e3)
	fmt.Printf("delivered %d packets (%.0f bits), %d failed after retries\n",
		st.DeliveredPackets, st.DeliveredBits, st.FailedPackets)
	fmt.Printf("MegaMIMO throughput: %.1f Mb/s\n", st.ThroughputBps(cfg.SampleRate)/1e6)

	bl, per, err := baseline.New(net).EqualShareThroughput(c.PacketBytes)
	if err != nil {
		return err
	}
	fmt.Printf("802.11 equal-share baseline: %.1f Mb/s total (per client:", bl/1e6)
	for _, v := range per {
		fmt.Printf(" %.1f", v/1e6)
	}
	fmt.Println(")")
	if bl > 0 {
		fmt.Printf("gain: %.1fx with %d APs\n", st.ThroughputBps(cfg.SampleRate)/bl, c.APs)
	}
	return nil
}

// finish closes the run's telemetry (an error there fails the run: a
// partial file must not pass for a complete one) and writes the
// -prom-out exposition, reporting each output.
func finish(c *runConfig, net *core.Network, tel *obs.Telemetry) error {
	if err := tel.Close(); err != nil {
		return err
	}
	if c.SeriesPath != "" {
		fmt.Printf("metrics series: %d samples -> %s\n", tel.Samples(), c.SeriesPath)
	}
	if c.promOut != "" {
		var prom bytes.Buffer
		if err := net.Metrics().WritePrometheus(&prom); err != nil {
			return err
		}
		if err := os.WriteFile(c.promOut, prom.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Printf("prometheus exposition -> %s\n", c.promOut)
	}
	if c.TracePath != "" {
		fmt.Printf("trace: %s (%d lines dropped)\n", c.TracePath, tel.Trace.Dropped())
	}
	return nil
}

// runSoak drives experiment.RunSoak from the CLI: the long-horizon
// game-day run with periodic checkpoints, or — with -resume — the
// restored tail of one. On resume it prints the checkpoint's logical
// stream offsets, so a caller can splice the tail files onto an
// uninterrupted run's output at exactly the right byte.
func runSoak(c *runConfig) error {
	air.SetWorkers(c.workers)
	if c.Resume != "" {
		st, _, err := checkpoint.ReadAny(c.Resume)
		if err != nil {
			return err
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
		return err
	}
	fmt.Println()
	fmt.Print(res.Report)
	fmt.Printf("\nsoak complete: %d rounds, %d checkpoints, trace %d bytes, series %d bytes\n",
		res.Report.Rounds, len(res.Checkpoints), res.TraceBytes, res.SeriesBytes)
	return nil
}

// runWorkload drives the measured network closed-loop from per-client
// demand profiles: MegaMIMO on the primary network, the 802.11 baseline
// on a second network built from the same seed (identical topology and
// channels), so both systems face the same demand.
func runWorkload(net *core.Network, cfg core.Config, c *runConfig, sampler *metrics.Sampler) error {
	kind, err := traffic.ParseKind(c.workload)
	if err != nil {
		return err
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
		return err
	}
	fmt.Printf("\nworkload: %s arrivals, %.1f Mb/s per client, %.3fs window\n\n", kind, c.LoadMbps, c.Seconds)
	mm, err := eng.Run(c.Seconds)
	if err != nil {
		return err
	}
	fmt.Print(mm)

	blNet, err := core.New(cfg)
	if err != nil {
		return err
	}
	if _, err := blNet.MeasureAndPrecode(); err != nil {
		return err
	}
	tcfg.System = traffic.SystemTDMA
	// The sampler reads the MegaMIMO network's registry; detach it before
	// the baseline run so that run's rounds don't append foreign points.
	tcfg.Sampler = nil
	blEng, err := traffic.New(blNet, tcfg)
	if err != nil {
		return err
	}
	bl, err := blEng.Run(c.Seconds)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(bl)
	if bl.AggregateDeliveredBps > 0 {
		fmt.Printf("\ngain under demand: %.1fx\n", mm.AggregateDeliveredBps/bl.AggregateDeliveredBps)
	}
	return nil
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
func runChaos(net *core.Network, c *runConfig, sampler *metrics.Sampler, tel *obs.Telemetry) error {
	plan, err := chaosPlan(net, c.chaos, c.Seconds, c.Seed)
	if err != nil {
		return err
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
		Sampler:     sampler,
		SampleEvery: c.SampleEvery,
	})
	if err != nil {
		return err
	}
	rep, err := eng.Run(c.Seconds)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(rep)
	// Recovered steady tail: the same closed loop keeps going, traced to
	// the file from here on.
	tel.Tee(c.TracePath != "")
	tail, err := eng.Run(c.Seconds / 2)
	if err != nil {
		return err
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
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "megamimo-sim:", err)
	os.Exit(1)
}
