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
	"megamimo/internal/tracefmt"
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

// traceRing is the flight-recorder ring size of a traced sweep cell. The
// ring only bounds the recorder's memory: the cell's sink sees every event.
const traceRing = 1 << 18

// mergeCells returns the StreamMerge that interleaves a sweep's per-cell
// traces into out in cell-index order, or nil (every cell untraced) when
// out is nil.
func mergeCells(out core.TraceSink, cells int) *tracefmt.StreamMerge {
	if out == nil {
		return nil
	}
	return tracefmt.NewStreamMerge(out, cells)
}

// attachTrace starts n's flight recorder feeding sink; a nil sink leaves
// the network untraced.
func attachTrace(n *core.Network, sink core.TraceSink) {
	if sink == nil {
		return
	}
	n.Trace().SetSink(sink)
	n.Trace().Enable(traceRing)
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
