package main

// metric is one number the benchmark reports, with the direction in which
// it improves. End-to-end metrics also carry the regression bound
// BENCHMARK.json declares for them.
type metric struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // worsening, as a share of the median, that counts as a regression
}

// endToEnd are the host-time metrics a user of the simulator waits on and
// pays for, measured with tracing off. They hold for every workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// spanShares are the spans reported as a share of the traced passes' wall
// time. Every workload reports all of them; a call the workload does not
// issue has share 0.
var spanShares = []string{
	"core.New",
	"core.Measure",
	"core.Precode",
	"baseline.EqualShareThroughput",
	"core.ProbeAndSelectRate",
	"core.JointTransmit",
	"core.EvolveClientLinks",
	"core.NullingINR",
	"traffic.Engine.Prepare",
	"traffic.Engine.Run.megamimo",
	"traffic.Engine.Run.802_11",
}

// spanMedians are the spans every workload issues, reported as the median
// wall time of one call.
var spanMedians = []string{"core.New", "core.Measure", "core.Precode"}

// probeNames lists the probes buildProbes times, in its order.
var probeNames = []string{
	"fec.Decoder.DecodeSoft.1500B.us",
	"phy.RX.Decode.1500B.us",
	"phy.RX.Decode.300B.us",
	"phy.TX.FrameSymbols.1500B.us",
	"phy.TX.SynthesizeJointInto.N4.us",
	"phy.TX.SynthesizeJointInto.N8.us",
	"core.ZFCache.Compute.full.N8.us",
	"core.ZFCache.Compute.incremental.N8.us",
	"air.Air.Transmit.N8.us",
	"air.Air.Observe.N8.us",
	"ofdm.Detect.us",
	"ofdm.EstimateChannelLTF.us",
	"sync.Strategy.Measure.header.us",
	"tracefmt.StreamSink.ConsumeTrace.ns",
	"tracefmt.Monitor.Observe.ns",
	"metrics.Sampler.Sample.us",
}

// countNames are simulated counts of one pass; they repeat exactly at a
// fixed seed and are 0 where the workload does not exercise the layer. All
// are better lower except core.stream_ok_ratio.
var countNames = []string{
	"core.joint_tx",
	"core.measurements",
	"core.stream_ok_ratio",
	"phy.decode_failures",
	"phy.fcs_failures",
	"mac.rounds",
	"mac.retransmissions",
	"mac.packets_failed",
	"mac.queue_depth_p95",
	"traffic.backlog",
	"traffic.drops",
	"core.degraded_rounds",
	"core.sync_abstain",
	"core.lead_failovers",
	"backend.dropped",
	"fault.injected",
	"tracefmt.events",
	"tracefmt.sink_dropped",
}

// perLayer lists every metric a traced run reports, with its unit.
func perLayer() []metric {
	var out []metric
	for _, s := range spanShares {
		out = append(out, metric{name: s + ".share", unit: "share", better: "lower"})
	}
	for _, s := range spanMedians {
		out = append(out, metric{name: s + ".p50_ms", unit: "ms", better: "lower"})
	}
	for _, p := range probeNames {
		out = append(out, metric{name: p, unit: p[len(p)-2:], better: "lower"})
	}
	for _, c := range countNames {
		m := metric{name: c, unit: "count", better: "lower"}
		if c == "core.stream_ok_ratio" {
			m.unit, m.better = "ratio", "higher"
		}
		out = append(out, m)
	}
	return append(out,
		metric{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metric{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
		metric{name: "experiment.Map.speedup_w2", unit: "x", better: "higher"},
		metric{name: "trace.unattributed_share", unit: "share", better: "lower"},
		metric{name: "trace.overhead", unit: "share", better: "lower"},
	)
}
