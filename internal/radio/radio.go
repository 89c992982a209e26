// Package radio models the analog front end the paper's USRP2 nodes
// provide: a free-running oscillator per node (carrier-frequency offset
// from its crystal error, optional phase wander) and
// transmit-power/noise-figure bookkeeping.
//
// The oscillator is the root cause MegaMIMO exists: every node's carrier
// rotates at its own rate, so distributed transmitters drift apart unless
// the protocol re-synchronizes them. All phases here are expressed in
// radians at the shared simulation ("ether") sample clock.
package radio

import (
	"math"

	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// Oscillator is one node's frequency reference. Its carrier offset derives
// from the crystal ppm error.
type Oscillator struct {
	// PPM is the crystal error in parts per million. 802.11 mandates
	// ±20 ppm; the paper's USRP2s are well within that.
	PPM units.PPM
	// CarrierHz is the RF carrier (2.4 GHz class).
	CarrierHz units.Hertz
	// SampleRate is the nominal baseband sample rate in Hz.
	SampleRate units.Hertz
	// Phase0 is the oscillator phase at ether time zero, radians.
	Phase0 units.Radians
	// WanderStd, when non-zero, adds a Wiener phase-noise walk with this
	// per-sample standard deviation (radians/√sample — a mixed dimension
	// with no named type of its own).
	WanderStd float64

	wander     *rng.Source
	wanderAcc  units.Radians
	wanderTime int64
}

// NewOscillator draws an oscillator with ppm uniform in ±ppmBudget and a
// random initial phase.
func NewOscillator(src *rng.Source, ppmBudget units.PPM, carrierHz, sampleRate units.Hertz) *Oscillator {
	return &Oscillator{
		//lint:ignore units rng draws are dimensionless; the budget bounds re-enter as PPM
		PPM:        units.PPM(src.Uniform(-float64(ppmBudget), float64(ppmBudget))),
		CarrierHz:  carrierHz,
		SampleRate: sampleRate,
		Phase0:     units.Radians(src.PhaseUniform()),
		wander:     src.Split(0x05C1),
	}
}

// FreqOffsetHz returns the carrier frequency offset in Hz.
func (o *Oscillator) FreqOffsetHz() units.Hertz {
	return units.FreqOffset(o.PPM, o.CarrierHz)
}

// CFORadPerSample returns the carrier offset in radians per ether sample.
func (o *Oscillator) CFORadPerSample() units.RadPerSample {
	return units.HzToRadPerSample(o.FreqOffsetHz(), o.SampleRate)
}

// PhaseAt returns the oscillator phase at ether sample t: ω·t + θ₀ plus
// any accumulated wander. Wander is evaluated lazily and monotonically;
// calling PhaseAt with decreasing t reuses the last wander value, which is
// accurate to one packet length for the protocols simulated here.
func (o *Oscillator) PhaseAt(t int64) units.Radians {
	p := units.PhaseAdvance(o.CFORadPerSample(), units.Samples(t)) + o.Phase0
	if o.WanderStd > 0 && o.wander != nil {
		if t > o.wanderTime {
			dt := float64(t - o.wanderTime)
			o.wanderAcc += units.Radians(o.WanderStd * math.Sqrt(dt) * o.wander.Norm())
			o.wanderTime = t
		}
		p += o.wanderAcc
	}
	return p
}

// Frontend carries the power bookkeeping for one radio chain.
type Frontend struct {
	// TxPowerDBm is the transmit power delivered to the antenna.
	TxPowerDBm units.Decibels
	// NoiseFigureDB inflates the thermal noise floor.
	NoiseFigureDB units.Decibels
	// BandwidthHz is the occupied bandwidth used for the noise floor.
	BandwidthHz units.Hertz
}

// Node is one radio device: an oscillator shared by one or more antenna
// chains (a 2-antenna 802.11n AP is one Node with two antennas, exactly
// like the paper's two externally clocked USRP2s).
type Node struct {
	ID       int
	Osc      *Oscillator
	Front    Frontend
	Antennas []int // antenna IDs registered with the air medium
}

// NewNode builds a node with the given antenna IDs and a freshly drawn
// oscillator.
func NewNode(id int, src *rng.Source, ppmBudget units.PPM, carrierHz, sampleRate units.Hertz, antennas ...int) *Node {
	return &Node{
		ID:       id,
		Osc:      NewOscillator(src.Split(uint64(id)+1), ppmBudget, carrierHz, sampleRate),
		Front:    Frontend{TxPowerDBm: 20, NoiseFigureDB: 6, BandwidthHz: sampleRate},
		Antennas: antennas,
	}
}
