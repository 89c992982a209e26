// Package experiment reproduces every figure of the paper's evaluation
// (§11): each RunFigN function regenerates the corresponding plot's series
// from full protocol simulations and returns printable rows. The harness
// conventions follow §11's methodology — random topologies per point, SNR
// binned low (6–12 dB), medium (12–18 dB), high (>18 dB), 1500-byte
// packets, and medians across runs.
package experiment

import (
	"fmt"
	"strings"

	"megamimo/internal/core"
	"megamimo/internal/fault"
	"megamimo/internal/phy"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// SNRBin is one of the paper's three evaluation bands.
type SNRBin struct {
	Name   string
	Lo, Hi units.Decibels
}

// The paper's bands (§11.1c): low 6–12 dB, medium 12–18 dB, high >18 dB.
var (
	LowSNR    = SNRBin{"Low SNR (6-12 dB)", 6, 12}
	MediumSNR = SNRBin{"Medium SNR (12-18 dB)", 12, 18}
	HighSNR   = SNRBin{"High SNR (>18 dB)", 18, 24}
	AllBins   = []SNRBin{HighSNR, MediumSNR, LowSNR}
)

// Defaults shared by the runners.
const (
	// PayloadBytes matches §10: "APs transmit 1500 byte packets".
	PayloadBytes = 1500
	// USRPSampleRate is the software-radio testbed's 10 MHz channel.
	USRPSampleRate = 10e6
	// Dot11nSampleRate is the 802.11n testbed's 20 MHz channel.
	Dot11nSampleRate = 20e6
)

// ensemble names the channel draw behind a sweep cell's AP→client matrix
// (DESIGN.md §3b, decision 2).
type ensemble bool

const (
	// haar mixes the links with a Haar-unitary matrix scaled by per-client
	// gains: the "random and well conditioned" channels of §11.2.
	haar ensemble = true
	// rayleigh draws every link iid Rayleigh.
	rayleigh ensemble = false
)

// cellConfig is the configuration every sweep cell starts from: the USRP
// testbed defaults at aps APs, clients clients and the [lo, hi] dB band,
// drawn from ens with seed.
func cellConfig(ens ensemble, aps, clients int, lo, hi units.Decibels, seed int64) core.Config {
	cfg := core.DefaultConfig(aps, clients, lo, hi)
	cfg.Seed = seed
	cfg.WellConditioned = bool(ens)
	return cfg
}

// network builds a sweep cell's network from cellConfig, after edit (nil =
// none) adjusts the configuration.
func network(ens ensemble, aps, clients int, lo, hi units.Decibels, seed int64, edit func(*core.Config)) (*core.Network, error) {
	cfg := cellConfig(ens, aps, clients, lo, hi, seed)
	if edit != nil {
		edit(&cfg)
	}
	return core.New(cfg)
}

// jointRounds sends rounds joint transmissions at mcs, each carrying a
// PayloadBytes payload per stream, and returns the summed airtime and the
// payload bits each stream delivered.
func jointRounds(n *core.Network, mcs phy.MCS, rounds int) (airtime int64, bits []float64, err error) {
	bits = make([]float64, n.NumStreams())
	payloads := make([][]byte, len(bits))
	for j := range payloads {
		payloads[j] = make([]byte, PayloadBytes)
	}
	for r := 0; r < rounds; r++ {
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			return 0, nil, err
		}
		airtime += res.AirtimeSamples
		for j, ok := range res.OK {
			if ok {
				bits[j] += 8 * PayloadBytes
			}
		}
	}
	return airtime, bits, nil
}

// closedLoop runs one closed-loop cell over the high-SNR Haar topology of
// nAPs APs and as many clients drawn from topoSeed, once per system:
// MegaMIMO, then the 802.11 baseline on an identically seeded network.
// Each run measures and precodes its network, then serves every stream
// profile for seconds under the fault schedule plan draws on it (nil plan
// = none). The MegaMIMO network is returned for its counters.
func closedLoop(nAPs int, profile traffic.Profile, seconds float64, topoSeed, engSeed int64, plan func(*core.Network) *fault.Plan) (mm, bl *traffic.Report, mmNet *core.Network, err error) {
	run := func(sys traffic.System) (*traffic.Report, *core.Network, error) {
		n, err := network(haar, nAPs, nAPs, HighSNR.Lo, HighSNR.Hi, topoSeed, nil)
		if err != nil {
			return nil, nil, err
		}
		if _, err := n.MeasureAndPrecode(); err != nil {
			return nil, nil, err
		}
		tcfg := traffic.Config{System: sys, Profiles: make([]traffic.Profile, n.NumStreams()), Seed: engSeed}
		for i := range tcfg.Profiles {
			tcfg.Profiles[i] = profile
		}
		if plan != nil {
			tcfg.Faults = plan(n)
		}
		eng, err := traffic.New(n, tcfg)
		if err != nil {
			return nil, nil, err
		}
		rep, err := eng.Run(seconds)
		return rep, n, err
	}
	if mm, mmNet, err = run(traffic.SystemMegaMIMO); err != nil {
		return nil, nil, nil, err
	}
	if bl, _, err = run(traffic.SystemTDMA); err != nil {
		return nil, nil, nil, err
	}
	return mm, bl, mmNet, nil
}

// Table renders aligned rows for terminal output.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
