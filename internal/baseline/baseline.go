// Package baseline implements the comparison systems of §11: traditional
// 802.11 unicast, where only one AP transmits at a time and every client
// gets an equal share of the medium (the paper schedules equal shares
// because USRPs cannot carrier-sense), and single-AP transmit beamforming
// for the 802.11n comparison. Both run over the same simulated medium and
// PHY as MegaMIMO, so every comparison is apples to apples.
package baseline

import (
	"fmt"
	"math"

	"megamimo/internal/air"
	"megamimo/internal/core"
	"megamimo/internal/dsp"
	"megamimo/internal/matrix"
	"megamimo/internal/phy"
	"megamimo/internal/rate"
	"megamimo/internal/units"
)

// Unicast models traditional 802.11: each client is served by its
// strongest AP, one transmission at a time.
type Unicast struct {
	Net *core.Network

	// tx/rx are reused across Transmit calls so per-packet workload
	// service doesn't rebuild modulator state every frame.
	tx *phy.TX
	rx *phy.RX
}

// New returns a baseline driver over an already measured network.
func New(net *core.Network) *Unicast {
	return &Unicast{Net: net, tx: phy.NewTX(), rx: phy.NewRX()}
}

// SubcarrierSNR returns the per-occupied-bin linear SNR of the unicast
// link from AP ap (antenna 0) to the given stream, computed from the
// measured channel matrix and the client-reported noise — the inputs
// effective-SNR rate selection uses.
func (u *Unicast) SubcarrierSNR(stream, ap int) ([]float64, error) {
	m := u.Net.Msmt
	if m == nil {
		return nil, fmt.Errorf("baseline: no measurement")
	}
	g := ap * u.Net.Cfg.AntennasPerAP
	nv := u.Net.Cfg.NoiseVar
	if stream < len(m.NoiseVar) && m.NoiseVar[stream] > 0 {
		nv = m.NoiseVar[stream]
	}
	out := make([]float64, len(m.H))
	for i, hm := range m.H {
		v := hm.At(stream, g)
		out[i] = (real(v)*real(v) + imag(v)*imag(v)) / nv
	}
	return out, nil
}

// SelectRate picks the unicast MCS for a stream from its strongest AP,
// applying the same receiver implementation-loss margin the joint
// beamformer's selector uses (both systems predict from measured channels;
// neither prediction includes the receiver's own estimation noise).
func (u *Unicast) SelectRate(stream int) (mcs phy.MCS, ap int, ok bool, err error) {
	ap = u.Net.StrongestAP(stream)
	sub, err := u.SubcarrierSNR(stream, ap)
	if err != nil {
		return 0, 0, false, err
	}
	margin := units.DBToLinear(-core.RateMarginDB)
	for i := range sub {
		sub[i] *= margin
	}
	mcs, ok = rate.Select(sub)
	return mcs, ap, ok, nil
}

// Transmit sends one unicast frame from the AP's antenna 0 to the stream's
// client antenna over the air and decodes it — a real 802.11 transmission
// on the shared medium (all other APs stay silent, as CSMA forces). The
// packet's waveform and receive window are borrowed from dsp's recycler
// for the call.
func (u *Unicast) Transmit(stream, ap int, payload []byte, mcs phy.MCS) (*phy.RxFrame, int64, error) {
	n := u.Net
	if u.tx == nil {
		u.tx, u.rx = phy.NewTX(), phy.NewRX()
	}
	wave, err := u.tx.Frame(payload, mcs)
	if err != nil {
		return nil, 0, err
	}
	defer dsp.Release(wave)
	start := n.Now() + 64
	apNode := n.APs[ap].Node
	n.Air.Transmit(n.APAntennaID(ap, 0), apNode.Osc, start, wave)
	cl := n.Clients[stream/n.Cfg.AntennasPerClient]
	ant := stream % n.Cfg.AntennasPerClient
	win := n.Air.ObserveInto(dsp.Borrow[complex128](len(wave)+256+air.ObserveTail), n.ClientAntennaID(cl.Index, ant), cl.Node.Osc, start-128, len(wave)+256)
	defer dsp.Release(win)
	frame, err := u.rx.Decode(win)
	airtime := int64(len(wave))
	n.AdvanceTime(airtime + 384)
	n.Air.ClearBefore(n.Now())
	if err != nil {
		return nil, airtime, nil // lost frame: airtime still spent
	}
	return frame, airtime, nil
}

// EqualShareThroughput computes the total 802.11 network throughput with
// every stream getting an equal share of the medium at its selected
// unicast rate (§11.2's baseline accounting): Σ_c rate_c / N.
func (u *Unicast) EqualShareThroughput(payloadBytes int) (total float64, perStream []float64, err error) {
	streams := u.Net.NumStreams()
	perStream = make([]float64, streams)
	for s := 0; s < streams; s++ {
		mcs, _, ok, err := u.SelectRate(s)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			continue // dead spot: zero throughput, still consumes share
		}
		perStream[s] = rate.ThroughputAtMCS(mcs, payloadBytes, u.Net.Cfg.SampleRate) / float64(streams)
		total += perStream[s]
	}
	return total, perStream, nil
}

// SingleAPMIMO is the 802.11n baseline: one AP transmit-beamforms its own
// antennas to one multi-antenna client (an ordinary 2×2 link), clients
// taking equal turns.
type SingleAPMIMO struct {
	Net *core.Network
}

// SubBlock extracts the client×AP sub-channel for one (client, AP) pair:
// rows are the client's antennas, columns the AP's antennas.
func (s *SingleAPMIMO) SubBlock(client, ap int) ([]*matrix.M, error) {
	m := s.Net.Msmt
	if m == nil {
		return nil, fmt.Errorf("baseline: no measurement")
	}
	ac, aa := s.Net.Cfg.AntennasPerClient, s.Net.Cfg.AntennasPerAP
	out := make([]*matrix.M, len(m.H))
	for i, hm := range m.H {
		b := matrix.New(ac, aa)
		for r := 0; r < ac; r++ {
			for c := 0; c < aa; c++ {
				b.Set(r, c, hm.At(client*ac+r, ap*aa+c))
			}
		}
		out[i] = b
	}
	return out, nil
}

// StreamSNR predicts the per-bin per-stream SNR of single-AP eigenmode
// (SVD) beamforming over the sub-block with equal power per stream — what
// a sounding-capable 802.11n link achieves, and the fair "best possible
// one AP" reference (it pays no channel-inversion penalty).
func (s *SingleAPMIMO) StreamSNR(client, ap int) ([][]float64, error) {
	blocks, err := s.SubBlock(client, ap)
	if err != nil {
		return nil, err
	}
	nv := s.Net.Cfg.NoiseVar
	row0 := client * s.Net.Cfg.AntennasPerClient
	if m := s.Net.Msmt; row0 < len(m.NoiseVar) && m.NoiseVar[row0] > 0 {
		nv = m.NoiseVar[row0]
	}
	ac := s.Net.Cfg.AntennasPerClient
	out := make([][]float64, ac)
	for r := range out {
		out[r] = make([]float64, len(blocks))
	}
	nStreams := float64(ac)
	for i, b := range blocks {
		for r, s2 := range singularValuesSquared(b) {
			if r >= ac {
				break
			}
			// Equal power split across eigenmodes, unit total TX power.
			out[r][i] = s2 / nStreams / nv
		}
	}
	return out, nil
}

// singularValuesSquared returns the squared singular values of a small
// matrix in descending order (eigenvalues of AᴴA via closed form for 2×2,
// power iteration fallback otherwise).
func singularValuesSquared(a *matrix.M) []float64 {
	g := a.H().Mul(a)
	n := g.Rows
	if n == 2 {
		tr := real(g.At(0, 0)) + real(g.At(1, 1))
		det := real(g.At(0, 0))*real(g.At(1, 1)) -
			(real(g.At(0, 1))*real(g.At(1, 0)) - imag(g.At(0, 1))*imag(g.At(1, 0)))
		disc := tr*tr - 4*det
		if disc < 0 {
			disc = 0
		}
		rt := math.Sqrt(disc)
		return []float64{(tr + rt) / 2, (tr - rt) / 2}
	}
	// General small-matrix fallback: eigenvalues by repeated deflation
	// with power iteration (sufficient for the ≤4×4 blocks used here).
	out := make([]float64, 0, n)
	work := g.Clone()
	for k := 0; k < n; k++ {
		lambda, vec := powerIteration(work)
		if lambda <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, lambda)
		// Deflate: work -= λ·v·vᴴ.
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				work.Set(r, c, work.At(r, c)-complex(lambda, 0)*vec[r]*conj(vec[c]))
			}
		}
	}
	return out
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

func powerIteration(g *matrix.M) (float64, []complex128) {
	n := g.Rows
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(1/math.Sqrt(float64(n)), 0)
	}
	var lambda float64
	for it := 0; it < 200; it++ {
		w := g.MulVec(v)
		var norm float64
		for _, x := range w {
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-18 {
			return 0, v
		}
		for i := range w {
			w[i] /= complex(norm, 0)
		}
		v = w
		lambda = norm
	}
	return lambda, v
}

// Throughput returns the 802.11n baseline total: each client served in
// turn by its strongest AP with 2-stream TX beamforming, equal shares.
func (s *SingleAPMIMO) Throughput(payloadBytes int) (float64, []float64, error) {
	nClients := s.Net.Cfg.NumClients
	per := make([]float64, nClients)
	var total float64
	for c := 0; c < nClients; c++ {
		ap := s.Net.StrongestAP(c * s.Net.Cfg.AntennasPerClient)
		snr, err := s.StreamSNR(c, ap)
		if err != nil {
			return 0, nil, err
		}
		var clientRate float64
		margin := units.DBToLinear(-core.RateMarginDB)
		for _, sub := range snr {
			scaled := make([]float64, len(sub))
			for i := range sub {
				scaled[i] = sub[i] * margin
			}
			if mcs, ok := rate.Select(scaled); ok {
				clientRate += rate.ThroughputAtMCS(mcs, payloadBytes, s.Net.Cfg.SampleRate)
			}
		}
		per[c] = clientRate / float64(nClients)
		total += per[c]
	}
	return total, per, nil
}
