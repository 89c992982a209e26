package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"megamimo/internal/checkpoint"
	"megamimo/internal/core"
	"megamimo/internal/fault"
	"megamimo/internal/metrics"
	"megamimo/internal/obs"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// The game-day soak harness: one MegaMIMO cell under sustained heavy load
// and a seeded fault storm, run for a long horizon with periodic
// checkpoints. A killed run resumes from its latest checkpoint and the
// resumed trace/metrics tail is byte-identical to the uninterrupted run —
// at any -workers count, with the storm active across the boundary.
// Trace events (through the synchronous tracefmt.StreamSink) and series
// samples are encoded and counted on the sim goroutine, so the logical
// stream positions recorded in each checkpoint are exact.

// ErrInterrupted is the sentinel a StopAfterRounds soak run returns: the
// in-process stand-in for kill -9 that the resume tests use.
var ErrInterrupted = errors.New("experiment: soak interrupted")

// SoakConfig parameterizes RunSoak. Its JSON encoding is the run
// identity: every field that shapes the simulation itself is hashed into
// each checkpoint's config digest, and a resume under a different
// identity is rejected. Fields that only say where artifacts land or how
// the run is driven are tagged json:"-"; any field added later joins the
// digest unless it is excluded the same way.
type SoakConfig struct {
	APs     int     `json:"aps"`
	Clients int     `json:"clients"`
	SNRLoDB float64 `json:"snr_lo_db"`
	SNRHiDB float64 `json:"snr_hi_db"`
	Seed    int64   `json:"seed"`
	// LoadMbps is the sustained per-client offered load.
	LoadMbps    float64 `json:"load_mbps"`
	PacketBytes int     `json:"packet_bytes"`
	// Seconds is the simulated horizon.
	Seconds float64 `json:"seconds"`
	// FaultsPerSec, when > 0, schedules a fault.Scenario storm at that
	// expected event rate over the window.
	FaultsPerSec float64 `json:"faults_per_sec"`
	// SampleEvery is the metrics time-series cadence in service rounds.
	SampleEvery int `json:"sample_every"`
	// CheckpointEvery writes a checkpoint every N service rounds into
	// CheckpointDir (0 = no checkpointing).
	CheckpointEvery int    `json:"checkpoint_every"`
	CheckpointDir   string `json:"-"`
	// Resume, when set, restores from this checkpoint file and runs the
	// remaining window instead of starting fresh.
	Resume string `json:"-"`
	// TracePath/SeriesPath stream the flight recorder and the sampled
	// metrics series as JSONL. A resumed run writes only the tail (no
	// trace header): splicing it onto the uninterrupted file at the
	// checkpoint's recorded offset reproduces it byte-for-byte.
	TracePath  string `json:"-"`
	SeriesPath string `json:"-"`
	// DriftPPM, when nonzero, injects oscillator drift at DriftAtSeconds
	// into the run: lead −ppm, slave APs +ppm (2×ppm relative) — the
	// bisect drill's anomaly source.
	DriftPPM       float64 `json:"drift_ppm"`
	DriftAtSeconds float64 `json:"drift_at_seconds"`
	// Server, when set, receives trace events, sampled metrics, and
	// checkpoint publications for /healthz.
	Server *obs.Server `json:"-"`
	// StopAfterRounds, when > 0, aborts the run with ErrInterrupted at
	// the first OnRound at or past that round (after any checkpoint due
	// there) — the resume tests' in-process interrupt.
	StopAfterRounds int `json:"-"`
}

// withDefaults fills the zero-value identity fields so a CLI run and a
// test run with the same intent hash to the same digest.
func (c SoakConfig) withDefaults() SoakConfig {
	if c.APs <= 0 {
		c.APs = 4
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.SNRLoDB == 0 && c.SNRHiDB == 0 {
		c.SNRLoDB, c.SNRHiDB = 18, 24
	}
	if c.LoadMbps <= 0 {
		c.LoadMbps = 8
	}
	if c.PacketBytes <= 0 {
		c.PacketBytes = 1500
	}
	if c.Seconds <= 0 {
		c.Seconds = 0.25
	}
	return c
}

// IdentityJSON renders the canonical config JSON whose SHA-256 guards
// every checkpoint of this run: the defaulted config's own encoding, in
// field order.
func (c SoakConfig) IdentityJSON() ([]byte, error) {
	return json.Marshal(c.withDefaults())
}

// CoreConfig builds the network configuration of the cell: the sweep-cell
// configuration at the configured topology, SNR band and seed on iid
// Rayleigh links.
func (c SoakConfig) CoreConfig() core.Config {
	return cellConfig(rayleigh, c.APs, c.Clients, units.Decibels(c.SNRLoDB), units.Decibels(c.SNRHiDB), c.Seed)
}

// SoakResult reports one soak run.
type SoakResult struct {
	// Report is the closed-loop outcome (nil when interrupted).
	Report *traffic.Report
	// Checkpoints lists the checkpoint files this run wrote, in order.
	Checkpoints []string
	// TraceBytes/SeriesBytes are the final logical stream positions.
	TraceBytes, SeriesBytes uint64
}

// RunSoak drives the game-day soak: build the cell, apply the load and
// the storm, checkpoint every CheckpointEvery rounds — or, with Resume
// set, rebuild identically, overwrite with the checkpointed state, and
// serve out the remaining window. Returns ErrInterrupted (with partial
// results) when StopAfterRounds fires.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	cfgJSON, err := cfg.IdentityJSON()
	if err != nil {
		return nil, err
	}
	var resumeSt *checkpoint.State
	if cfg.Resume != "" {
		if resumeSt, err = checkpoint.Read(cfg.Resume, cfgJSON); err != nil {
			return nil, err
		}
	}

	// Rebuild path — identical for fresh and resumed runs: everything a
	// checkpoint does not capture must come out of this path bit-for-bit.
	ccfg := cfg.CoreConfig()
	net, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	net.Trace().Enable(1 << 20)
	if _, err := net.MeasureAndPrecode(); err != nil {
		return nil, err
	}
	start := net.Now()
	var plan *fault.Plan
	if cfg.FaultsPerSec > 0 {
		plan = fault.Storm(net, cfg.Seed, cfg.Seconds, cfg.FaultsPerSec)
	}
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.NewCBR(cfg.LoadMbps*1e6, cfg.PacketBytes)
	}
	sampler := metrics.NewSampler(net.Metrics())
	// Register the checkpoint counters before any sampling so both runs'
	// series carry them from the first point.
	mWrites := net.Metrics().Counter("checkpoint_writes_total")
	mBytes := net.Metrics().Counter("checkpoint_bytes_total")

	driftAt := start + int64(units.TicksIn(cfg.DriftAtSeconds, ccfg.SampleRate))
	applyDrift := func() {
		// Idempotent SET, replayed every round past the trigger: the
		// restored clock alone decides whether drift is in effect, so a
		// resume needs no extra "was it applied" flag.
		if cfg.DriftPPM == 0 || net.Now() < driftAt {
			return
		}
		net.SetAPDrift(units.PPM(cfg.DriftPPM))
	}

	res := &SoakResult{}

	var eng *traffic.Engine
	var tel *obs.Telemetry // opened after any restore, before the first round
	tcfg := traffic.Config{
		System: traffic.SystemMegaMIMO, Profiles: profiles, Seed: cfg.Seed + 1,
		Faults: plan, Sampler: sampler, SampleEvery: cfg.SampleEvery,
		OnRound: func(rounds int) error {
			applyDrift()
			if cfg.CheckpointEvery > 0 && rounds%cfg.CheckpointEvery == 0 {
				st, err := checkpoint.Capture(net, eng, tel.Trace.Bytes(), tel.SeriesBytes())
				if err != nil {
					return err
				}
				path := filepath.Join(cfg.CheckpointDir, fmt.Sprintf("soak-%08d.ckpt", rounds))
				nb, err := checkpoint.Write(path, cfgJSON, st)
				if err != nil {
					return err
				}
				mWrites.Inc()
				mBytes.Add(nb)
				res.Checkpoints = append(res.Checkpoints, path)
				cfg.Server.PublishCheckpoint(path, net.Now())
			}
			if cfg.StopAfterRounds > 0 && rounds >= cfg.StopAfterRounds {
				return ErrInterrupted
			}
			return nil
		},
	}
	if eng, err = traffic.New(net, tcfg); err != nil {
		return nil, err
	}

	out := obs.Outputs{TracePath: cfg.TracePath, SeriesPath: cfg.SeriesPath, Server: cfg.Server}
	if resumeSt != nil {
		out.Trace.Offset, out.SeriesOffset = resumeSt.TraceBytes, resumeSt.SeriesBytes
		// The probe inside Prepare replays deterministically; everything
		// it mutated is then overwritten from the checkpoint.
		if err := eng.Prepare(); err != nil {
			return nil, err
		}
		if err := resumeSt.Restore(net, eng); err != nil {
			return nil, err
		}
		// The restored registry predates the very write that produced the
		// checkpoint being resumed (captures happen before their own
		// write); account for it so the counters match the uninterrupted
		// run from the first resumed sample.
		fi, err := os.Stat(cfg.Resume)
		if err != nil {
			return nil, err
		}
		mWrites.Inc()
		mBytes.Add(fi.Size())
		cfg.Server.PublishCheckpoint(cfg.Resume, resumeSt.Now)
	}

	// Streaming surfaces attach only now, after any restore, so rebuild
	// events never leak into the resumed stream. A fresh run's trace file
	// opens with the schema header; a resumed tail continues at the
	// checkpoint's offsets and carries none. Without a TracePath or
	// SeriesPath each stream is still encoded and counted, for the
	// checkpoints' offsets.
	if tel, err = obs.Open(net, out); err != nil {
		return nil, err
	}
	tel.Tee(true)
	sampler.OnSample = tel.OnSample

	var rep *traffic.Report
	var runErr error
	if resumeSt != nil {
		rep, runErr = eng.ResumeRun()
	} else {
		rep, runErr = eng.Run(cfg.Seconds)
	}

	closeErr := tel.Close()
	res.Report = rep
	res.TraceBytes, res.SeriesBytes = tel.Trace.Bytes(), tel.SeriesBytes()
	if runErr != nil {
		res.Report = nil
		return res, runErr
	}
	if closeErr != nil {
		return res, fmt.Errorf("soak: close streams: %w", closeErr)
	}
	return res, nil
}
