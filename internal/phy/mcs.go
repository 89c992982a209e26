// Package phy assembles the full 802.11a/g-style PHY pipeline on top of
// internal/ofdm: scramble → convolutional code → interleave → QAM map →
// OFDM, with a SIGNAL header, FCS, and the matching receive chain
// (detection, CFO correction, channel estimation, equalization, soft
// Viterbi). It also exposes the frequency-domain frame representation that
// MegaMIMO's joint beamformer precodes per subcarrier.
package phy

import (
	"fmt"

	"megamimo/internal/fec"
	"megamimo/internal/modulation"
	"megamimo/internal/units"
)

// MCS is a modulation-and-coding-scheme index, 0–7, in 802.11a rate order.
type MCS int

// The eight 802.11a rates.
const (
	MCS0   MCS = iota // BPSK 1/2   (6 Mb/s at 20 MHz)
	MCS1              // BPSK 3/4   (9)
	MCS2              // QPSK 1/2   (12)
	MCS3              // QPSK 3/4   (18)
	MCS4              // 16-QAM 1/2 (24)
	MCS5              // 16-QAM 3/4 (36)
	MCS6              // 64-QAM 2/3 (48)
	MCS7              // 64-QAM 3/4 (54)
	NumMCS = 8
)

type mcsInfo struct {
	scheme modulation.Scheme
	rate   fec.Rate
	ndbps  int  // data bits per OFDM symbol
	ncbps  int  // coded bits per OFDM symbol
	signal byte // RATE bits in the SIGNAL field (802.11-1999 table 80)
}

var mcsTable = [NumMCS]mcsInfo{
	{modulation.BPSK, fec.Rate12, 24, 48, 0b1101},
	{modulation.BPSK, fec.Rate34, 36, 48, 0b1111},
	{modulation.QPSK, fec.Rate12, 48, 96, 0b0101},
	{modulation.QPSK, fec.Rate34, 72, 96, 0b0111},
	{modulation.QAM16, fec.Rate12, 96, 192, 0b1001},
	{modulation.QAM16, fec.Rate34, 144, 192, 0b1011},
	{modulation.QAM64, fec.Rate23, 192, 288, 0b0001},
	{modulation.QAM64, fec.Rate34, 216, 288, 0b0011},
}

// Valid reports whether m is a defined MCS index.
func (m MCS) Valid() bool { return m >= 0 && m < NumMCS }

func (m MCS) info() mcsInfo {
	if !m.Valid() {
		panic(fmt.Sprintf("phy: invalid MCS %d", int(m)))
	}
	return mcsTable[m]
}

// Modulation returns the constellation of this MCS.
func (m MCS) Modulation() modulation.Scheme { return m.info().scheme }

// DataBitsPerSymbol returns N_DBPS.
func (m MCS) DataBitsPerSymbol() int { return m.info().ndbps }

// BitRate returns the PHY data rate in bits/s at the given sample rate
// (e.g. 54e6/80·216 at 20 Msample/s).
func (m MCS) BitRate(sampleRate units.Hertz) float64 {
	return float64(m.info().ndbps) * units.Ratio(sampleRate, 1) / 80.0
}

// String names the MCS, e.g. "16-QAM 3/4".
func (m MCS) String() string {
	if !m.Valid() {
		return fmt.Sprintf("MCS(%d)", int(m))
	}
	i := m.info()
	return fmt.Sprintf("%v %v", i.scheme, i.rate)
}

// mcsFromSignalBits reverses the RATE field mapping.
func mcsFromSignalBits(bits byte) (MCS, error) {
	for i, info := range mcsTable {
		if info.signal == bits {
			return MCS(i), nil
		}
	}
	return 0, fmt.Errorf("phy: unknown RATE bits %04b", bits)
}
