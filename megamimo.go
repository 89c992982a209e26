// Package megamimo is a faithful, fully simulated reproduction of
// "JMB / MegaMIMO: Scaling Wireless Capacity with User Demands"
// (SIGCOMM 2012): joint multi-user beamforming from independent access
// points whose oscillators are synchronized by the paper's distributed
// phase-synchronization protocol.
//
// The package is a facade over the internal implementation:
//
//   - Network simulation: Config / NewNetwork build a set of APs and
//     clients with independent oscillators on a shared, impairment-accurate
//     medium. Measure runs the channel-measurement phase; JointTransmit
//     delivers one packet per client concurrently; DiversityTransmit
//     coherently combines every AP toward one client.
//   - Rate control: Precode builds and installs the zero-forcing precoder
//     and ProbeAndSelectRate mirrors the paper's effective-SNR link
//     adaptation.
//   - Experiments: RunFig6 … Fig13From regenerate every figure of the
//     paper's evaluation section.
//
// A two-AP, two-client joint transmission:
//
//	cfg := megamimo.DefaultConfig(2, 2, 18, 24)
//	net, _ := megamimo.NewNetwork(cfg)
//	net.MeasureAndPrecode()
//	res, _ := net.JointTransmit([][]byte{pkt0, pkt1}, megamimo.MCS2)
package megamimo

import (
	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/phy"
	"megamimo/internal/units"
)

// Config assembles a MegaMIMO network; see core.Config for field docs.
type Config = core.Config

// Network is a running MegaMIMO deployment on a simulated medium.
type Network = core.Network

// Measurement is one channel snapshot referenced to a single time.
type Measurement = core.Measurement

// Precoder holds per-subcarrier joint beamforming weights.
type Precoder = core.Precoder

// TxResult reports one joint transmission.
type TxResult = core.TxResult

// MCS is a modulation-and-coding-scheme index (0–7, 802.11a order).
type MCS = phy.MCS

// The 802.11a rate ladder.
const (
	MCS0 = phy.MCS0
	MCS1 = phy.MCS1
	MCS2 = phy.MCS2
	MCS3 = phy.MCS3
	MCS4 = phy.MCS4
	MCS5 = phy.MCS5
	MCS6 = phy.MCS6
	MCS7 = phy.MCS7
)

// DefaultConfig mirrors the paper's USRP testbed with nAPs access points
// and nClients single-antenna clients whose links fall in [snrLo, snrHi]
// dB.
func DefaultConfig(nAPs, nClients int, snrLo, snrHi units.Decibels) Config {
	return core.DefaultConfig(nAPs, nClients, snrLo, snrHi)
}

// NewNetwork builds the network: nodes, oscillators, channels, backbone.
func NewNetwork(cfg Config) (*Network, error) { return core.New(cfg) }

// ComputeDiversity builds the §8 coherent-combining precoder for one
// stream.
func ComputeDiversity(m *Measurement, stream int) (*Precoder, error) {
	return core.ComputeDiversity(m, stream)
}

// DiversitySubcarrierSNR predicts the per-bin SNR of the §8 diversity mode
// for a stream: (Σ_a |h_a|)²/noiseVar.
func DiversitySubcarrierSNR(m *Measurement, stream int, noiseVar float64) []float64 {
	return core.DiversitySubcarrierSNR(m, stream, noiseVar)
}

// Experiment runners — one per figure in the paper's evaluation (§11).
var (
	RunFig6   = experiment.RunFig6
	RunFig7   = experiment.RunFig7
	RunFig8   = experiment.RunFig8
	RunFig9   = experiment.RunFig9
	Fig10From = experiment.Fig10From
	RunFig11  = experiment.RunFig11
	RunFig12  = experiment.RunFig12
	Fig13From = experiment.Fig13From
)
