// Package rng centralizes the reproducible randomness the simulator uses:
// complex Gaussians for channels and noise, Rayleigh-faded taps, and a
// deterministic sub-stream splitter so that independent components (each
// oscillator, each link) draw from independent but replayable sequences.
//
// Every Source is explicitly snapshotable: State captures the complete
// generator state (feedback register, byte-read carry, split base) and
// Restore resumes the exact draw position, so a checkpointed simulation
// replays the same stream it would have produced uninterrupted. The
// underlying generator is bit-identical to math/rand's, keeping all
// golden streams unchanged.
//
// Normal draws (Norm, ComplexNormal, AddComplexNormal) come from the
// package's own copy of math/rand's ziggurat (normal.go), bit for bit
// NormFloat64 on the same stream. AddComplexNormal, the receiver noise
// on every observed sample, steps the register a batch of words at a
// time and, on amd64 CPUs with AVX-512 F and DQ, tests and commits a
// batch's draws in assembly kernels (normal_amd64.s); it leaves the same
// values and the same register as drawing each normal in turn.
package rng

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Source is a deterministic random source for one simulation component.
type Source struct {
	src *lfsr
	// r provides Float64, unbiased Intn, Perm and Uint64 over src; normal
	// draws go through the package's own ziggurat. *rand.Rand keeps no
	// state of its own between calls apart from the Read carry, which
	// Bytes reimplements below, so snapshotting src (+ the carry)
	// captures the full stream position.
	r *rand.Rand
	// readVal / readPos carry the unconsumed remainder of the last Int63
	// drawn by Bytes, mirroring math/rand's Read so the byte stream stays
	// identical to the pre-snapshot implementation.
	readVal   int64
	readPos   int8
	splitBase uint64 // lazy hidden draw backing Split; see base()
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	src := &lfsr{}
	src.Seed(seed)
	return &Source{src: src, r: rand.New(src)}
}

// State is the serializable snapshot of a Source: the full feedback
// register with its cursors, the Bytes carry, and the split base. A
// restored Source produces the identical continuation of every draw
// sequence (Float64, Norm, Bytes, Split, ...).
type State struct {
	Tap       int     `json:"tap"`
	Feed      int     `json:"feed"`
	Vec       []int64 `json:"vec"`
	ReadVal   int64   `json:"read_val,omitempty"`
	ReadPos   int8    `json:"read_pos,omitempty"`
	SplitBase uint64  `json:"split_base,omitempty"`
}

// State snapshots the complete generator state.
func (s *Source) State() State {
	vec := make([]int64, lfsrLen)
	copy(vec, s.src.vec[:])
	return State{
		Tap:       s.src.tap,
		Feed:      s.src.feed,
		Vec:       vec,
		ReadVal:   s.readVal,
		ReadPos:   s.readPos,
		SplitBase: s.splitBase,
	}
}

// Restore overwrites the Source with a previously captured State.
func (s *Source) Restore(st State) error {
	if len(st.Vec) != lfsrLen {
		return fmt.Errorf("rng: restore: register has %d words, want %d", len(st.Vec), lfsrLen)
	}
	if st.Tap < 0 || st.Tap >= lfsrLen || st.Feed < 0 || st.Feed >= lfsrLen {
		return fmt.Errorf("rng: restore: cursors (tap=%d, feed=%d) out of range [0, %d)", st.Tap, st.Feed, lfsrLen)
	}
	if st.ReadPos < 0 || st.ReadPos > 7 {
		return fmt.Errorf("rng: restore: read carry position %d out of range [0, 7]", st.ReadPos)
	}
	s.src.tap = st.Tap
	s.src.feed = st.Feed
	copy(s.src.vec[:], st.Vec)
	s.readVal = st.ReadVal
	s.readPos = st.ReadPos
	s.splitBase = st.SplitBase
	return nil
}

// Split derives an independent child Source labeled by id. Children with
// different ids (or from parents with different seeds) are decorrelated via
// a 64-bit mix, and the parent's sequence is not consumed.
func (s *Source) Split(id uint64) *Source {
	// SplitInto seeds the child, so its register starts unseeded.
	src := &lfsr{}
	return s.SplitInto(&Source{src: src, r: rand.New(src)}, id)
}

// SplitInto is Split into an existing Source: it reseeds dst as the child
// labeled id and clears its Bytes carry and split base, so dst draws
// exactly what Split(id) would. It returns dst.
func (s *Source) SplitInto(dst *Source, id uint64) *Source {
	// splitmix64-style finalizer over (parent seed draw, id).
	z := uint64(s.base()) ^ (id * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	dst.src.Seed(int64(z))
	dst.readVal, dst.readPos, dst.splitBase = 0, 0, 0
	return dst
}

// base returns a stable per-source value used by Split without consuming
// the main stream.
func (s *Source) base() uint64 {
	// A fresh generator from the same seed yields the same first value, so
	// peeking by cloning would be wasteful; instead we keep a hidden draw.
	// We derive it once, lazily.
	if s.splitBase == 0 {
		s.splitBase = s.r.Uint64() | 1
	}
	return s.splitBase
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*s.r.Float64() }

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Norm returns a standard normal draw.
func (s *Source) Norm() float64 { return s.src.norm() }

// ComplexNormal returns a circularly symmetric complex Gaussian with the
// given total variance (E|x|² = variance), i.e. each component has
// variance/2.
func (s *Source) ComplexNormal(variance float64) complex128 {
	sd := math.Sqrt(variance / 2)
	return complex(sd*s.src.norm(), sd*s.src.norm())
}

// AddComplexNormal adds an iid circular complex Gaussian of the given
// total variance to every element of dst and returns dst. It leaves the
// same values and the same stream position as adding ComplexNormal to
// each element in turn, with the standard deviation taken once: the
// real and imaginary parts take the draws in turn.
func (s *Source) AddComplexNormal(dst []complex128, variance float64) []complex128 {
	s.src.addNormals(normalKernel, floats(dst), math.Sqrt(variance/2))
	return dst
}

// floats views dst as its real and imaginary parts in turn, the layout
// of a complex128.
func floats(dst []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(dst))), 2*len(dst))
}

// Rayleigh returns a Rayleigh-distributed magnitude with scale sigma
// (mode sigma; mean sigma·sqrt(π/2)).
func (s *Source) Rayleigh(sigma float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// PhaseUniform returns a uniform phase in [-π, π).
func (s *Source) PhaseUniform() float64 { return s.Uniform(-math.Pi, math.Pi) }

// Exp returns an exponential draw with the given mean (0 when mean <= 0),
// the interarrival law of Poisson traffic.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a bounded Pareto draw with shape alpha on [xm, hi] by
// inverse-CDF sampling — the heavy-tailed file-size law of web and video
// workloads. Degenerate parameters collapse to xm.
func (s *Source) Pareto(alpha, xm, hi float64) float64 {
	if alpha <= 0 || xm <= 0 || hi <= xm {
		return xm
	}
	u := s.r.Float64()
	// F(x) = (1 - (xm/x)^α) / (1 - (xm/hi)^α) on [xm, hi].
	r := math.Pow(xm/hi, alpha)
	x := xm / math.Pow(1-u*(1-r), 1/alpha)
	if x > hi {
		x = hi
	}
	return x
}

// BoundedParetoMean returns the expectation of the Pareto(alpha, xm, hi)
// law above, used to convert a target bit rate into a mean interarrival
// time for heavy-tailed file workloads.
func BoundedParetoMean(alpha, xm, hi float64) float64 {
	if alpha <= 0 || xm <= 0 || hi <= xm {
		return xm
	}
	r := math.Pow(xm/hi, alpha)
	if math.Abs(alpha-1) < 1e-9 {
		return xm * math.Log(hi/xm) / (1 - r)
	}
	return math.Pow(xm, alpha) / (1 - r) * alpha / (alpha - 1) *
		(math.Pow(xm, 1-alpha) - math.Pow(hi, 1-alpha))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Bytes fills b with random bytes and returns it. Each Int63 draw yields
// seven bytes, little-end first, with the remainder carried to the next
// call — the exact byte stream of math/rand's Read, but with the carry in
// snapshotable Source state.
func (s *Source) Bytes(b []byte) []byte {
	pos, val := s.readPos, s.readVal
	for i := range b {
		if pos == 0 {
			val = s.src.Int63()
			pos = 7
		}
		b[i] = byte(val)
		val >>= 8
		pos--
	}
	s.readPos, s.readVal = pos, val
	return b
}

// Bits fills b with random 0/1 values and returns it.
func (s *Source) Bits(b []byte) []byte {
	for i := range b {
		b[i] = byte(s.r.Intn(2))
	}
	return b
}
