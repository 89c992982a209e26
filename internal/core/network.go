// Package core implements MegaMIMO itself: the distributed phase
// synchronization protocol (§4–5), joint zero-forcing multi-user
// beamforming across independent APs, the diversity mode (§8), decoupled
// per-receiver channel measurement (§7 and the appendix), and the 802.11n
// compatibility path (§6).
//
// The package drives real signal paths end to end: every channel estimate
// the protocol uses is measured from samples observed on the shared air
// medium (internal/air) by the node that owns it, with that node's own
// oscillator impairments — no genie state crosses between nodes except
// over the modeled Ethernet backend, exactly as in the paper's testbed.
package core

import (
	"fmt"
	"math"

	"megamimo/internal/air"
	"megamimo/internal/backend"
	"megamimo/internal/channel"
	"megamimo/internal/dsp"
	"megamimo/internal/matrix"
	"megamimo/internal/metrics"
	"megamimo/internal/ofdm"
	"megamimo/internal/phy"
	"megamimo/internal/radio"
	"megamimo/internal/rng"
	psync "megamimo/internal/sync"
	"megamimo/internal/units"
)

// Config assembles a MegaMIMO network.
type Config struct {
	// NumAPs and NumClients size the network; the paper's headline
	// experiments use NumAPs == NumClients.
	NumAPs, NumClients int
	// AntennasPerAP / AntennasPerClient: 1 for the USRP testbed, 2 for the
	// 802.11n testbed.
	AntennasPerAP, AntennasPerClient int
	// SampleRate: 10 MHz (USRP testbed) or 20 MHz (802.11n testbed).
	SampleRate units.Hertz
	// CarrierHz is the RF carrier, default 2.437 GHz (channel 6).
	CarrierHz units.Hertz
	// PPMBudget bounds each node's crystal error (uniform ±budget).
	// Real deployed radios sit near ±2 ppm; 802.11 allows
	// units.Dot11MaxPPM (20).
	PPMBudget units.PPM
	// NoiseVar is the per-sample noise variance at every receiver.
	NoiseVar float64
	// SNRRangeDB is the target client SNR band [lo, hi] (the paper's
	// low 6–12, medium 12–18, high 18–25); per-client mean SNR is drawn
	// uniformly inside it and per-AP link gains vary ±LinkSpreadDB around
	// that mean.
	SNRRangeDB [2]units.Decibels
	// LinkSpreadDB is the per-link gain variation around the client mean.
	LinkSpreadDB units.Decibels
	// WellConditioned draws the AP→client matrix from a Haar-unitary
	// mixing ensemble (scaled by per-client gains, plus mild extra
	// multipath) instead of iid Rayleigh links. The paper's conference
	// room measured channels it calls "random and well conditioned"
	// (§11.2) — a property iid Rayleigh draws lack at N×N, where
	// zero-forcing pays a heavy-tailed inversion penalty the testbed did
	// not observe. The experiment harness enables this for the throughput
	// figures; microbenchmarks run both ways.
	WellConditioned bool
	// MeasurementRounds is the number of interleaved channel-measurement
	// repetitions averaged by the clients (§5.1: "repeated ... to reduce
	// the impact of noise").
	MeasurementRounds int
	// ExtrapolatePhase is the ablation switch for the paper's central
	// design decision (§1, §5.2): when set, slaves skip the per-packet
	// direct phase measurement and predict their correction as Δω̂·t from
	// the measurement-time reference alone. Frequency-offset estimation
	// error then accumulates without bound across packets — the failure
	// mode MegaMIMO exists to avoid.
	ExtrapolatePhase bool
	// CSIQuantBits, when positive, quantizes every client CSI report to a
	// signed fixed-point format with this many magnitude bits before it is
	// fed back — the Intel 5300's firmware behavior (§6: the 802.11n
	// testbed obtains CSI from the card's quantized reports).
	CSIQuantBits int
	// WanderStd adds Wiener oscillator phase noise (rad/√sample).
	WanderStd float64
	// SyncStalenessSamples is the sync-abstain staleness budget: when a
	// slave's per-packet sync-header measurement fails, it may fall back
	// to CFO extrapolation only while its last good measurement is at most
	// this many ether samples old; beyond the budget (or when 0) the slave
	// withholds its antennas from the joint transmission rather than fire
	// with a garbage phase ratio.
	SyncStalenessSamples units.Ticks
	// Seed drives all randomness.
	Seed int64
}

// APLinkSNRdB is the lead→slave link SNR (APs are infrastructure on
// ledges with strong mutual links).
const APLinkSNRdB units.Decibels = 32

// RateMarginDB backs an idealized SNR prediction off before the MCS table
// lookup, covering receiver implementation loss (channel-estimation noise,
// pilot jitter, residual CFO).
const RateMarginDB units.Decibels = 3

// triggerDelaySamples is t∆, sync header to joint data (§10: 150 µs at 10 MHz).
const triggerDelaySamples = 1500

// DefaultConfig mirrors the paper's USRP testbed at a given size and SNR
// band.
func DefaultConfig(nAPs, nClients int, snrLo, snrHi units.Decibels) Config {
	return Config{
		NumAPs:            nAPs,
		NumClients:        nClients,
		AntennasPerAP:     1,
		AntennasPerClient: 1,
		SampleRate:        10e6,
		CarrierHz:         2.437e9,
		PPMBudget:         2,
		NoiseVar:          1e-3,
		SNRRangeDB:        [2]units.Decibels{snrLo, snrHi},
		LinkSpreadDB:      3,
		MeasurementRounds: 4,
		// 10 ms at 10 MHz: a handful of rounds of CFO extrapolation before
		// a sync-starved slave must abstain.
		SyncStalenessSamples: 100_000,
		Seed:                 1,
	}
}

// AP is one access point.
type AP struct {
	Index int
	Node  *radio.Node
	// IsLead marks the elected lead AP (§4: "declare one transmitter the
	// lead").
	IsLead bool

	// syncs holds this AP's phase-synchronization state toward every
	// other AP that might lead a transmission (§9 nominates the
	// head-of-queue packet's designated AP as lead, so every AP keeps a
	// reference to every potential lead, captured from the same
	// measurement packet). The state machine lives in the network's
	// sync.HeaderSync; the AP only owns the per-peer state.
	syncs map[int]*psync.Peer

	// weights hold this AP's precoder rows after the lead distributes the
	// beamforming matrix: weights[ownAnt][stream][bin].
	weights [][][]complex128
}

// syncTo returns (allocating if needed) the AP's sync state toward peer.
func (ap *AP) syncTo(peer int) *psync.Peer {
	if ap.syncs == nil {
		ap.syncs = make(map[int]*psync.Peer)
	}
	s := ap.syncs[peer]
	if s == nil {
		s = &psync.Peer{}
		ap.syncs[peer] = s
	}
	return s
}

// Client is one receiver.
type Client struct {
	Index int
	Node  *radio.Node
	// NoiseVarEst is the client's own noise estimate, reported with CSI.
	NoiseVarEst float64
}

// Network owns the medium, the nodes and the global clock.
type Network struct {
	Cfg     Config
	Air     *air.Air
	Bus     *backend.Bus
	APs     []*AP
	Clients []*Client

	now    int64
	rng    *rng.Source
	tracer *Tracer
	// sync is the paper's phase-synchronization scheme every slave runs
	// toward its lead (§5.2).
	sync psync.HeaderSync

	// metrics is the network's telemetry registry; the m* fields cache the
	// boundary instruments so hot-path recording is a field increment, not
	// a map lookup (the JointTransmit alloc budget covers this path).
	metrics           *metrics.Registry
	mJointTx          *metrics.Counter
	mSyncHeaders      *metrics.Counter
	mSyncHeaderSmpls  *metrics.Counter
	mDecodeFailures   *metrics.Counter
	mFCSFailures      *metrics.Counter
	mStreamsDelivered *metrics.Counter
	mMeasurements     *metrics.Counter
	mLeadFailovers    *metrics.Counter
	mSyncAbstain      *metrics.Counter
	mDegradedRounds   *metrics.Counter

	// Fault state (internal/fault drives it through CrashAP/RestartAP/
	// CorruptSync). crashed marks APs that are off the air and off the
	// bus; syncLossUntil makes an AP's sync-header measurements fail until
	// the given ether time; abstain is per-round scratch marking slaves
	// that withheld their antennas from the current joint transmission.
	crashed       []bool
	syncLossUntil []int64
	abstain       []bool
	// zf caches per-bin Gram inverses for the full array and for every
	// degraded participation mask, updated incrementally across
	// measurements (Sherman–Morrison) instead of re-inverted per round.
	zf *ZFCache

	// tx, rx and dem are the network's reusable PHY pipelines. A Network
	// is single-threaded, so owning them here keeps independent networks
	// goroutine-independent. Every client decodes through the one rx, one
	// after another; an RxFrame never aliases its scratch. Buffers sized
	// by the frame are borrowed from dsp's recycler for one call instead.
	tx  *phy.TX
	rx  *phy.RX
	dem *ofdm.Demodulator
	// estBuf is estimateSymbolChannel's derotated symbol and freqs the two
	// 64-bin buffers the measurement path demodulates into; estSlots is
	// the grow-only per-round estimate arena estimateSlots hands out.
	// child is the scratch generator buildLinks and EvolveClientLinks
	// reseed (SplitInto) for each sub-stream that dies with its draw.
	estBuf   []complex128
	freqs    [2][]complex128
	estSlots [][]complex128
	child    *rng.Source

	// Msmt is the latest channel-measurement state (H estimate and the
	// reference time); nil until Measure runs.
	Msmt *Measurement
}

const clientAntBase = 10000

// APAntennaID returns the air antenna ID for AP ap, antenna m.
func (n *Network) APAntennaID(ap, m int) int { return ap*n.Cfg.AntennasPerAP + m }

// ClientAntennaID returns the air antenna ID for client c, antenna m.
func (n *Network) ClientAntennaID(c, m int) int {
	return clientAntBase + c*n.Cfg.AntennasPerClient + m
}

// NumStreams returns the total concurrent streams (client antennas).
func (n *Network) NumStreams() int { return n.Cfg.NumClients * n.Cfg.AntennasPerClient }

// NumTxAntennas returns the total AP antennas.
func (n *Network) NumTxAntennas() int { return n.Cfg.NumAPs * n.Cfg.AntennasPerAP }

// Now returns the current ether time in samples.
func (n *Network) Now() int64 { return n.now }

// AdvanceTime moves the clock forward (test hook / idle periods).
func (n *Network) AdvanceTime(samples int64) { n.now += samples }

// observe is Air.Observe into a window borrowed from dsp's recycler; the
// caller hands it back with dsp.Release once it has consumed it.
func (n *Network) observe(rx int, osc *radio.Oscillator, start int64, count int) []complex128 {
	return n.Air.ObserveInto(dsp.Borrow[complex128](count+air.ObserveTail), rx, osc, start, count)
}

// observeClean is observe without the noise term.
func (n *Network) observeClean(rx int, osc *radio.Oscillator, start int64, count int) []complex128 {
	return n.Air.ObserveCleanInto(dsp.Borrow[complex128](count+air.ObserveTail), rx, osc, start, count)
}

// syncHeader is the lead's sync header, one read-only waveform shared by
// every network: Air.Transmit copies its input.
var syncHeader = ofdm.Preamble()

// New builds a network: nodes with independent oscillators, Rayleigh/Rician
// links sized to the configured SNR band, and an Ethernet bus.
func New(cfg Config) (*Network, error) {
	if cfg.NumAPs < 1 || cfg.NumClients < 1 {
		return nil, fmt.Errorf("core: need at least one AP and one client")
	}
	if cfg.AntennasPerAP < 1 {
		cfg.AntennasPerAP = 1
	}
	if cfg.AntennasPerClient < 1 {
		cfg.AntennasPerClient = 1
	}
	if cfg.MeasurementRounds < 2 {
		cfg.MeasurementRounds = 2
	}
	src := rng.New(cfg.Seed)
	n := &Network{
		Cfg: cfg,
		Air: air.New(air.Config{
			SampleRate: cfg.SampleRate,
			NoiseVar:   cfg.NoiseVar,
			Seed:       cfg.Seed + 7,
		}),
		rng:    src,
		tx:     phy.NewTX(),
		rx:     phy.NewRX(),
		dem:    ofdm.NewDemodulator(),
		estBuf: make([]complex128, symLen),
		freqs:  [2][]complex128{make([]complex128, ofdm.NFFT), make([]complex128, ofdm.NFFT)},
		child:  rng.New(0),
		zf:     NewZFCache(),
	}
	n.sync = psync.Header()
	n.initMetrics()
	n.initTracer()
	busIDs := make([]int, 0, cfg.NumAPs)
	for a := 0; a < cfg.NumAPs; a++ {
		ants := make([]int, cfg.AntennasPerAP)
		for m := range ants {
			ants[m] = n.APAntennaID(a, m)
		}
		node := radio.NewNode(a, src.Split(uint64(a)+100), cfg.PPMBudget, cfg.CarrierHz, cfg.SampleRate, ants...)
		node.Osc.WanderStd = cfg.WanderStd
		n.APs = append(n.APs, &AP{Index: a, Node: node, IsLead: a == 0})
		busIDs = append(busIDs, a)
	}
	for c := 0; c < cfg.NumClients; c++ {
		ants := make([]int, cfg.AntennasPerClient)
		for m := range ants {
			ants[m] = n.ClientAntennaID(c, m)
		}
		node := radio.NewNode(1000+c, src.Split(uint64(c)+500), cfg.PPMBudget, cfg.CarrierHz, cfg.SampleRate, ants...)
		node.Osc.WanderStd = cfg.WanderStd
		n.Clients = append(n.Clients, &Client{Index: c, Node: node})
		busIDs = append(busIDs, 1000+c)
	}
	n.Bus = backend.New(int64(units.TicksIn(50e-6, cfg.SampleRate)), busIDs...) // 50 µs backbone hop
	n.Bus.SetDropCounter(n.metrics.Counter("backend_dropped_total"))
	n.crashed = make([]bool, cfg.NumAPs)
	n.syncLossUntil = make([]int64, cfg.NumAPs)
	n.abstain = make([]bool, cfg.NumAPs)
	n.buildLinks(src.Split(0xC4A))
	return n, nil
}

// buildLinks draws every AP→client link inside the SNR band and the
// lead→slave reference links. Each link, and the Haar mix, draws from its
// own sub-stream of src, reseeded into n.child: none outlives its draw.
func (n *Network) buildLinks(src *rng.Source) {
	cfg := n.Cfg
	split := func(id uint64) *rng.Source { return src.SplitInto(n.child, id) }
	var mix *matrix.M
	if cfg.WellConditioned {
		mix = haarMixing(split(0x4AA2), n.NumStreams(), n.NumTxAntennas())
	}
	for c := 0; c < cfg.NumClients; c++ {
		//lint:ignore units rng draws are dimensionless; the SNR band re-enters as the drawn mean in dB
		meanSNR := src.Uniform(float64(cfg.SNRRangeDB[0]), float64(cfg.SNRRangeDB[1]))
		for a := 0; a < cfg.NumAPs; a++ {
			for am := 0; am < cfg.AntennasPerAP; am++ {
				for cm := 0; cm < cfg.AntennasPerClient; cm++ {
					var l *channel.Link
					if mix != nil {
						gain := cfg.NoiseVar * pow10(meanSNR/10)
						row := c*cfg.AntennasPerClient + cm
						col := a*cfg.AntennasPerAP + am
						l = mixedLink(split(linkSeed(a, am, c, cm)), gain, mix.At(row, col), n.NumTxAntennas())
					} else {
						//lint:ignore units rng draws are dimensionless; the spread bound re-enters as dB around the mean
						snr := meanSNR + src.Uniform(-float64(cfg.LinkSpreadDB), float64(cfg.LinkSpreadDB))
						gain := cfg.NoiseVar * pow10(snr/10)
						l = channel.NewLink(split(linkSeed(a, am, c, cm)), channel.DefaultIndoor, gain, 0)
					}
					n.Air.SetLink(n.APAntennaID(a, am), n.ClientAntennaID(c, cm), l)
				}
			}
		}
	}
	// Lead (and any AP that may become lead) to every other AP: strong
	// infrastructure links, reciprocal.
	for a := 0; a < cfg.NumAPs; a++ {
		for b := 0; b < cfg.NumAPs; b++ {
			if a == b {
				continue
			}
			gain := cfg.NoiseVar * units.DBToLinear(APLinkSNRdB)
			l := channel.NewLink(split(0xAB0000+uint64(a*64+b)), channel.DefaultIndoor, gain, 0)
			n.Air.SetLink(n.APAntennaID(a, 0), n.APAntennaID(b, 0), l)
		}
	}
}

// haarMixing draws an approximately Haar-distributed unitary (via
// Gram-Schmidt on an iid Gaussian matrix) and returns its top-left
// rows×cols block, the conditioning-friendly spatial mixing structure.
func haarMixing(src *rng.Source, rows, cols int) *matrix.M {
	n := rows
	if cols > n {
		n = cols
	}
	g := matrix.New(n, n)
	for i := range g.Data {
		g.Data[i] = src.ComplexNormal(1)
	}
	// Modified Gram-Schmidt over columns.
	for c := 0; c < n; c++ {
		col := g.Col(c)
		for p := 0; p < c; p++ {
			prev := g.Col(p)
			var dot complex128
			for i := range col {
				dot += col[i] * complex(real(prev[i]), -imag(prev[i]))
			}
			for i := range col {
				col[i] -= dot * prev[i]
			}
		}
		var norm float64
		for _, v := range col {
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		norm = math.Sqrt(norm)
		for i := range col {
			col[i] /= complex(norm, 0)
		}
		for r := 0; r < n; r++ {
			g.Set(r, c, col[r])
		}
	}
	out := matrix.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.Set(r, c, g.At(r, c))
		}
	}
	return out
}

// mixedLink builds a link whose dominant tap realizes one entry of the
// scaled mixing matrix (so the per-bin network matrix is well conditioned)
// plus two weak scattered taps (−13 dB total) for realistic mild frequency
// selectivity.
func mixedLink(src *rng.Source, clientGain float64, mixEntry complex128, txAnts int) *channel.Link {
	// A unitary's entries carry power 1/dim; scale so the link's average
	// power gain is clientGain (each AP contributes clientGain; the array
	// sums to N·clientGain, the joint transmission's power advantage).
	main := complex(math.Sqrt(clientGain*float64(txAnts)*0.95), 0) * mixEntry
	taps := []complex128{
		main,
		src.ComplexNormal(clientGain * 0.03),
		src.ComplexNormal(clientGain * 0.02),
	}
	return &channel.Link{Taps: taps}
}

func linkSeed(a, am, c, cm int) uint64 {
	return uint64(a)<<24 | uint64(am)<<16 | uint64(c)<<8 | uint64(cm)
}

func pow10(x float64) float64 { return math.Pow(10, x) }

// initMetrics creates the registry and resolves the boundary instruments
// once, so recording on the signal path never performs a name lookup.
func (n *Network) initMetrics() {
	n.metrics = metrics.NewRegistry()
	n.mJointTx = n.metrics.Counter("core_joint_tx_total")
	n.mSyncHeaders = n.metrics.Counter("core_sync_headers_total")
	n.mSyncHeaderSmpls = n.metrics.Counter("core_sync_header_samples_total")
	n.mDecodeFailures = n.metrics.Counter("phy_decode_failures_total")
	n.mFCSFailures = n.metrics.Counter("phy_fcs_failures_total")
	n.mStreamsDelivered = n.metrics.Counter("core_streams_delivered_total")
	n.mMeasurements = n.metrics.Counter("core_measurements_total")
	n.mLeadFailovers = n.metrics.Counter("lead_failovers_total")
	n.mSyncAbstain = n.metrics.Counter("sync_abstain_total")
	n.mDegradedRounds = n.metrics.Counter("degraded_rounds_total")
}

// Metrics returns the network's telemetry registry (always non-nil).
func (n *Network) Metrics() *metrics.Registry {
	if n.metrics == nil {
		n.initMetrics()
	}
	return n.metrics
}

// Lead returns the lead AP. A crashed AP never leads: if none is marked
// (or the marked lead crashed) the lowest live index stands in.
func (n *Network) Lead() *AP {
	for _, ap := range n.APs {
		if ap.IsLead && !n.crashed[ap.Index] {
			return ap
		}
	}
	for _, ap := range n.APs {
		if !n.crashed[ap.Index] {
			return ap
		}
	}
	return n.APs[0]
}

// SetAPDrift injects oscillator drift: the lead AP's oscillator runs at
// −ppm and every other AP's at +ppm, pulling the slaves 2×ppm off the
// lead carrier — the drift the anomaly gate's cfo-mandate check measures.
// Client oscillators keep their configured draws. The call is an
// idempotent set, so replaying it is harmless.
func (n *Network) SetAPDrift(ppm units.PPM) {
	lead := n.Lead().Index
	for _, ap := range n.APs {
		if ap.Index == lead {
			ap.Node.Osc.PPM = -ppm
		} else {
			ap.Node.Osc.PPM = ppm
		}
	}
}

// Slaves returns all live non-lead APs.
func (n *Network) Slaves() []*AP {
	out := make([]*AP, 0, len(n.APs)-1)
	for _, ap := range n.APs {
		if !ap.IsLead && !n.crashed[ap.Index] {
			out = append(out, ap)
		}
	}
	return out
}

// SetLead re-elects the lead AP (§9: the designated AP of the head-of-queue
// packet leads each transmission). It returns an error — leaving the
// current lead in place — when the index is out of range or names a
// crashed AP; callers that merely prefer an AP use ElectLead to fall back
// deterministically instead.
func (n *Network) SetLead(index int) error {
	if index < 0 || index >= len(n.APs) {
		return fmt.Errorf("core: SetLead(%d): no such AP (have %d)", index, len(n.APs))
	}
	if n.crashed[index] {
		return fmt.Errorf("core: SetLead(%d): AP is crashed", index)
	}
	for _, ap := range n.APs {
		ap.IsLead = ap.Index == index
	}
	return nil
}

// EvolveClientLinks ages every AP→client link of one client with the
// Gauss-Markov coherence model (ρ = 1 freezes; channel.CoherenceRho maps
// elapsed time to ρ). Used to study measurement staleness: §9 notes stale
// channel state to one client corrupts only that client's packets.
func (n *Network) EvolveClientLinks(client int, rho float64) {
	src := n.rng.SplitInto(n.child, 0xE701+uint64(client)<<8+uint64(n.now))
	for a := 0; a < n.Cfg.NumAPs; a++ {
		for am := 0; am < n.Cfg.AntennasPerAP; am++ {
			for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
				if l := n.Air.Link(n.APAntennaID(a, am), n.ClientAntennaID(client, cm)); l != nil {
					l.Evolve(src, rho)
				}
			}
		}
	}
}

// StrongestAP returns the live AP with the highest measured wideband gain
// to the given stream (the packet's "designated AP", §9). It falls back to
// the lowest live AP when no measurement exists, and never nominates a
// crashed AP.
func (n *Network) StrongestAP(stream int) int {
	if n.Msmt == nil {
		return n.ElectLead(0)
	}
	best, bestPow := n.ElectLead(0), -1.0
	for a := 0; a < n.Cfg.NumAPs; a++ {
		if n.crashed[a] {
			continue
		}
		var pow float64
		for m := 0; m < n.Cfg.AntennasPerAP; m++ {
			g := a*n.Cfg.AntennasPerAP + m
			for _, hm := range n.Msmt.H {
				v := hm.At(stream, g)
				pow += real(v)*real(v) + imag(v)*imag(v)
			}
		}
		if pow > bestPow {
			best, bestPow = a, pow
		}
	}
	return best
}

// symbolWave is one known OFDM training symbol (the LTF sequence on its 52
// bins) used for CFO blocks and interleaved measurement, one read-only wave
// shared by every network: Air.Transmit copies its input.
var symbolWave = func() []complex128 {
	sym, err := ofdm.NewModulator().RawSymbol(ofdm.LTFFreq())
	if err != nil {
		panic(err)
	}
	return sym
}()
