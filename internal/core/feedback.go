package core

import (
	"fmt"

	"megamimo/internal/csi"
	"megamimo/internal/dsp"
	"megamimo/internal/ofdm"
	"megamimo/internal/phy"
)

// Wireless CSI feedback (§5.1b: "the receivers then communicate these
// estimated channels back to the transmitters over the wireless channel").
// The modeled Ethernet path (default) carries the same values; this path
// additionally pays the real uplink cost: serialization into PSDUs, base
// rate airtime, decoding at the lead AP, and retransmissions on loss.

// feedbackMCS is the uplink rate — CSI rides at base rate like management
// traffic.
const feedbackMCS = phy.MCS0

// feedbackChunkBytes bounds each CSI frame's payload.
const feedbackChunkBytes = 1400

// uplinkDeliver transmits one client's CSI report to the lead AP over the
// air, retrying lost chunks, and feeds the assembler. It returns the
// completed report once every chunk has landed.
func (n *Network) uplinkDeliver(rep *csi.Report, fromAnt int, asm *csi.Assembler) (*csi.Report, error) {
	chunks, err := rep.MarshalChunks(occupiedBins(), feedbackChunkBytes)
	if err != nil {
		return nil, err
	}
	lead := n.Lead()
	cl := n.Clients[rep.Client]
	var done *csi.Report
	for _, chunk := range chunks {
		const maxAttempts = 4
		delivered := false
		for attempt := 0; attempt < maxAttempts && !delivered; attempt++ {
			wave, err := n.tx.Frame(chunk, feedbackMCS)
			if err != nil {
				return nil, err
			}
			start := n.now + 64
			n.Air.Transmit(n.ClientAntennaID(rep.Client, fromAnt), cl.Node.Osc, start, wave)
			win := n.observe(n.APAntennaID(lead.Index, 0), lead.Node.Osc, start-winLead, len(wave)+winLead+192)
			n.now = start + int64(len(wave)) + 256
			dsp.Release(wave)
			n.Air.ClearBefore(n.now)
			frame, err := n.rx.Decode(win)
			dsp.Release(win)
			if err != nil || !frame.FCSOK {
				continue // lost: retransmit
			}
			got, err := asm.Feed(frame.Payload, n.NumTxAntennas(), ofdm.NFFT)
			if err != nil {
				return nil, fmt.Errorf("core: uplink CSI parse: %w", err)
			}
			if got != nil {
				done = got
			}
			delivered = true
		}
		if !delivered {
			return nil, fmt.Errorf("core: uplink CSI chunk lost after retries (client %d)", rep.Client)
		}
		n.trace(n.now, KindFeedback,
			TraceAttrs{Client: rep.Client, AP: lead.Index, Bits: int64(8 * len(chunk)), OK: true},
			"CSI chunk from client %d", rep.Client)
	}
	return done, nil
}
