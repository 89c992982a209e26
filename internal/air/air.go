// Package air is the shared wireless medium: transmit antennas post
// emissions (sample streams anchored at an "ether" time), and receive
// antennas observe the superposition of every emission after each link's
// multipath convolution, propagation delay, the transmitter/receiver
// oscillator rotation, and additive white Gaussian noise.
//
// The ether clock is the nominal sample rate; every impairment that makes
// distributed MIMO hard (CFO between independent oscillators, noise)
// is applied at observation time, so the same emission looks different to
// every receiver — exactly like the real channel.
package air

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"megamimo/internal/channel"
	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/radio"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// workerCount bounds the goroutines observe fans emission shards across;
// 0 means "use GOMAXPROCS". Package-level because every simulated network
// owns its own Air but the machine's parallelism budget is shared.
var workerCount atomic.Int32

// SetWorkers bounds the worker pool observe shards emission summation
// across. n <= 0 restores the default (GOMAXPROCS at call time); 1 keeps
// observation strictly serial. Observed samples are byte-identical at every
// worker count: the shard partition and the reduction order depend only on
// the emission list, never on how many goroutines computed the shards.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int32(n))
}

// Workers reports the effective shard fan-out observe will use.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Config parameterizes the medium.
type Config struct {
	// SampleRate is the nominal ether rate, Hz.
	SampleRate units.Hertz
	// NoiseVar is the per-sample complex noise variance at every receive
	// antenna (the noise floor in linear units; signal scales are relative
	// to it).
	NoiseVar float64
	// Seed makes the noise reproducible.
	Seed int64
}

type linkKey struct{ tx, rx int }

type emission struct {
	tx      int
	osc     *radio.Oscillator
	start   int64
	samples []complex128
}

// Air is the medium. It is not safe for concurrent use; the simulator is
// single-threaded per medium by design (time is global). (observe may fan
// emission shards across a bounded worker pool internally, but that
// parallelism never escapes the call.)
type Air struct {
	cfg       Config
	links     map[linkKey]*channel.Link
	emissions []emission
	noise     *rng.Source
	// unsorted marks that an out-of-order Transmit broke the by-start
	// ordering observe's time index relies on; the next observe re-sorts.
	unsorted bool
	// arrivals and shards are observe's grow-only scratch of resolved
	// emissions and their summation shards.
	arrivals []arrival
	shards   []shard
}

// arrival is one emission as a receiver hears it in an observation
// window: the ether span [lo, hi) it reaches (empty when lo >= hi) and
// the carrier rotation at lo. Observe resolves every arrival serially, in
// emission order, before any shard runs: reading an oscillator's phase
// advances its wander walk, so the reads must happen in the same order at
// every worker count.
type arrival struct {
	samples   []complex128
	taps      []complex128
	lo, hi    int64
	oLo       int // offset of lo into the full convolution output
	rot, step complex128
}

// shard is a block of up to shardSize consecutive arrivals, the span of
// the observation window [lo, hi) its live arrivals reach, relative to
// the window start, and the buffer its sum over that span accumulates in.
type shard struct {
	arrivals []arrival
	lo, hi   int
	buf      []complex128
}

// shardSize is the number of consecutive emissions each observation shard
// accumulates. The partition is a pure function of the emission list, so
// the floating-point summation tree — per-shard accumulation in emission
// order, then reduction in shard order — is fixed before any worker runs.
const shardSize = 4

// New returns an empty medium.
func New(cfg Config) *Air {
	if cfg.SampleRate <= 0 {
		panic("air: sample rate must be positive")
	}
	return &Air{
		cfg:   cfg,
		links: make(map[linkKey]*channel.Link),
		noise: rng.New(cfg.Seed).Split(0xA12),
	}
}

// Config returns the medium configuration.
func (a *Air) Config() Config { return a.cfg }

// SetLink installs the channel from transmit antenna tx to receive antenna
// rx. Antennas with no link are not connected (infinite path loss).
func (a *Air) SetLink(tx, rx int, l *channel.Link) {
	a.links[linkKey{tx, rx}] = l
}

// Link returns the installed link or nil.
func (a *Air) Link(tx, rx int) *channel.Link {
	return a.links[linkKey{tx, rx}]
}

// Transmit posts an emission from antenna tx starting at ether sample
// start. The oscillator provides the carrier phase trajectory; samples are
// the baseband waveform at nominal rate in the transmitter's own clock.
// The samples are copied into a buffer borrowed from dsp's recycler until
// ClearBefore or Reset drops the emission, so callers may reuse theirs
// immediately.
func (a *Air) Transmit(tx int, osc *radio.Oscillator, start int64, samples []complex128) {
	if osc == nil {
		panic("air: Transmit requires an oscillator")
	}
	if len(samples) == 0 {
		return
	}
	buf := dsp.Borrow[complex128](len(samples))
	copy(buf, samples)
	if k := len(a.emissions); k > 0 && start < a.emissions[k-1].start {
		a.unsorted = true
	}
	a.emissions = append(a.emissions, emission{tx: tx, osc: osc, start: start, samples: buf})
}

// Observe returns n samples of what receive antenna rx hears starting at
// ether sample start, through the receiver's own oscillator, with noise.
// The window is freshly allocated; ObserveInto reuses the caller's.
func (a *Air) Observe(rx int, osc *radio.Oscillator, start int64, n int) []complex128 {
	return a.ObserveInto(nil, rx, osc, start, n)
}

// ObserveInto is Observe building the window in dst's backing array: dst
// is grown to n plus ObserveTail samples when its capacity falls short,
// cleared and filled. The returned window aliases dst, so a caller that
// reuses one buffer must consume each window before the next observation.
func (a *Air) ObserveInto(dst []complex128, rx int, osc *radio.Oscillator, start int64, n int) []complex128 {
	return a.noise.AddComplexNormal(a.observe(dst, rx, osc, start, n), a.cfg.NoiseVar)
}

// ObserveCleanInto is ObserveInto without the noise term; the experiment
// harness uses it to measure interference power directly (the paper's INR
// metric compares received interference against a known noise floor).
func (a *Air) ObserveCleanInto(dst []complex128, rx int, osc *radio.Oscillator, start int64, n int) []complex128 {
	return a.observe(dst, rx, osc, start, n)
}

// ObserveTail is the extra ether span every window builds past its n
// samples: a dst for ObserveInto with capacity n+ObserveTail is never
// reallocated. The tail decides which emissions count as arrivals, and
// resolving an arrival reads its oscillators, which advances their wander
// walks, so changing it moves every wander-dependent result (Fig. 7).
const ObserveTail = 2

func (a *Air) observe(dst []complex128, rx int, osc *radio.Oscillator, start int64, n int) []complex128 {
	if osc == nil {
		panic("air: Observe requires an oscillator")
	}
	if n <= 0 {
		return nil
	}
	if cap(dst) < n+ObserveTail {
		dst = make([]complex128, n+ObserveTail)
	}
	ether := dst[:n+ObserveTail]
	clear(ether)
	if a.unsorted {
		es := a.emissions
		sort.SliceStable(es, func(i, j int) bool { return es[i].start < es[j].start })
		a.unsorted = false
	}
	// Time index: emissions are kept sorted by start, so everything from
	// the first emission starting at or beyond the window end is invisible
	// (link delays only push arrivals later). Emissions that ended before
	// the window skip per-emission on the overlap clamp, before any
	// convolution work.
	cut := sort.Search(len(a.emissions), func(i int) bool {
		return a.emissions[i].start >= start+int64(n+ObserveTail)
	})
	arrivals := a.resolve(start, n+ObserveTail, rx, osc, cut)
	defer clear(arrivals) // drop the sample references until the next observe
	// Deterministic sharded summation: shard s accumulates emissions
	// [s·shardSize, (s+1)·shardSize) in index order, and the shard sums
	// reduce into the ether in shard order. Workers only decide who
	// computes a shard, never what is summed in which order, so one
	// worker and sixteen produce identical bytes.
	shards := a.partition(start, arrivals)
	defer clear(shards) // drop the arrival and buffer references too
	if len(shards) == 0 {
		return ether[:n]
	}
	// The first shard accumulates straight into the ether; every later one
	// into its own disjoint region of one borrowed block, cut to its span.
	size := 0
	for _, sh := range shards[1:] {
		size += sh.hi - sh.lo
	}
	backing := dsp.Borrow[complex128](size)
	clear(backing)
	shards[0].buf = ether[shards[0].lo:shards[0].hi]
	for i, rest := 1, backing; i < len(shards); i++ {
		m := shards[i].hi - shards[i].lo
		shards[i].buf, rest = rest[:m], rest[m:]
	}
	if w := min(Workers(), len(shards)); w <= 1 {
		for _, sh := range shards {
			fillShard(sh, start)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(next.Add(1) - 1)
					if s >= len(shards) {
						return
					}
					fillShard(shards[s], start)
				}
			}()
		}
		wg.Wait()
	}
	for _, sh := range shards[1:] {
		e := ether[sh.lo:sh.hi]
		for i := range e {
			e[i] += sh.buf[i]
		}
	}
	dsp.Release(backing)
	return ether[:n]
}

// partition cuts arrivals into shards of shardSize consecutive arrivals,
// in index order, and keeps those with a live arrival, each with the span
// of the window [lo, hi) its live arrivals reach, relative to start.
//
// Trimming and dropping shards is exact. Accumulators start at +0 and,
// under round-to-nearest, a sum is −0 only when both addends are, so they
// never hold −0; adding the +0 of a sample no arrival touched therefore
// changes no bit, and the first shard's sum added onto the cleared ether
// is that sum.
func (a *Air) partition(start int64, arrivals []arrival) []shard {
	shards := a.shards[:0]
	for s := 0; s < len(arrivals); s += shardSize {
		sh := shard{arrivals: arrivals[s:min(len(arrivals), s+shardSize)], lo: math.MaxInt}
		for _, r := range sh.arrivals {
			if r.lo < r.hi {
				sh.lo = min(sh.lo, int(r.lo-start))
				sh.hi = max(sh.hi, int(r.hi-start))
			}
		}
		if sh.lo < sh.hi {
			shards = append(shards, sh)
		}
	}
	a.shards = shards
	return shards
}

// fillShard accumulates a shard's arrivals into its buffer in index order.
// The buffer is either a span of the ether itself (the first shard) or
// the shard's private region; shard workers touch disjoint buffers only.
func fillShard(sh shard, start int64) {
	base := start + int64(sh.lo)
	for _, r := range sh.arrivals {
		if r.lo < r.hi {
			// Convolution, carrier rotation and summation run fused.
			dsp.ConvolveRotateAdd(sh.buf[r.lo-base:r.hi-base], r.samples, r.taps, r.oLo, r.rot, r.step)
		}
	}
}

// resolve computes the arrival of emissions [0, cut) at receive antenna
// rx in the ether window [start, start+n), in emission order. The window
// is clamped to the overlap first, so a non-overlapping or unlinked
// emission costs a few comparisons and never reads an oscillator, and an
// emission mostly outside the window only convolves the samples the
// receiver hears.
func (a *Air) resolve(start int64, n int, rx int, rxOsc *radio.Oscillator, cut int) []arrival {
	arrivals := a.arrivals[:0]
	for _, e := range a.emissions[:cut] {
		var r arrival
		if l := a.links[linkKey{e.tx, rx}]; l != nil {
			r = arrival{samples: e.samples, taps: l.Taps}
			need := len(r.samples) + len(r.taps) - 1
			arrive := e.start + int64(l.Delay)
			r.lo = max(arrive, start)
			r.hi = min(arrive+int64(need), start+int64(n))
			r.oLo = int(r.lo - arrive)
			if r.lo < r.hi {
				// Carrier rotation e^{j(φ_tx(t)−φ_rx(t))}, advanced
				// incrementally from lo.
				dPhase := e.osc.CFORadPerSample() - rxOsc.CFORadPerSample()
				r.rot = cmplxs.Expi(e.osc.PhaseAt(r.lo) - rxOsc.PhaseAt(r.lo))
				r.step = cmplxs.Expi(units.PhaseAdvance(dPhase, 1))
			}
		}
		arrivals = append(arrivals, r)
	}
	a.arrivals = arrivals
	return arrivals
}

// ClearBefore drops emissions that end before ether sample t, bounding
// memory in long simulations; their sample buffers return to the
// recycler. The margin accounts for the longest link delay plus tap
// spread.
func (a *Air) ClearBefore(t int64) {
	const margin = 256
	kept := a.emissions[:0]
	for _, e := range a.emissions {
		if e.start+int64(len(e.samples))+margin >= t {
			kept = append(kept, e)
		} else {
			dsp.Release(e.samples)
		}
	}
	for i := len(kept); i < len(a.emissions); i++ {
		a.emissions[i] = emission{}
	}
	a.emissions = kept
}

// Reset drops all emissions, returning their buffers to the recycler.
func (a *Air) Reset() {
	for i := range a.emissions {
		dsp.Release(a.emissions[i].samples)
		a.emissions[i] = emission{}
	}
	a.emissions = a.emissions[:0]
	a.unsorted = false
}

// NumEmissions reports the pending emission count (diagnostics).
func (a *Air) NumEmissions() int { return len(a.emissions) }

// String summarizes the medium.
func (a *Air) String() string {
	return fmt.Sprintf("air{rate=%.0f links=%d emissions=%d noiseVar=%.3g}",
		a.cfg.SampleRate, len(a.links), len(a.emissions), a.cfg.NoiseVar)
}
