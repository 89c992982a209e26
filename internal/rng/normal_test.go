package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelNames names each kernel in test failures.
var kernelNames = map[kernel]string{goKernel: "Go", avx512Kernel: "AVX-512"}

// seeded returns a register seeded with seed and advanced skip words.
func seeded(seed int64, skip int) *lfsr {
	r := &lfsr{}
	r.Seed(seed)
	for range skip {
		r.Uint64()
	}
	return r
}

// checkNormals runs addNormals with kernel k on a copy of register r and
// of d, and a NormFloat64 loop over a twin of r, and requires the same
// bits in every element (for a NaN, any NaN) and the same register after.
func checkNormals(t *testing.T, k kernel, r *lfsr, d []float64, sd float64, what string) {
	t.Helper()
	twin, got := *r, *r
	want := append([]float64(nil), d...)
	oracle := rand.New(&twin)
	for i := range want {
		want[i] += sd * oracle.NormFloat64()
	}
	out := append([]float64(nil), d...)
	got.addNormals(k, out, sd)
	for i := range want {
		w, g := want[i], out[i]
		if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Fatalf("%s kernel, %s: element %d of %d is %v (%#x), NormFloat64 gives %v (%#x)",
				kernelNames[k], what, i, len(d), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got != twin {
		t.Fatalf("%s kernel, %s: register at tap %d, feed %d after the call, NormFloat64 leaves tap %d, feed %d (or the words differ)",
			kernelNames[k], what, got.tap, got.feed, twin.tap, twin.feed)
	}
}

// TestAddNormalsMatchesNormFloat64 holds every kernel the host runs,
// called directly, to rand.(*Rand).NormFloat64 over a twin of the
// register: on seeds 0-300, on every length 0-2000 from register
// positions that put the 607-word wrap anywhere in the call, on variances
// from 0 and subnormal through 1e±300 to +Inf and NaN, and on a d holding
// signed zeros, infinities and NaN.
func TestAddNormalsMatchesNormFloat64(t *testing.T) {
	for _, k := range hostKernels() {
		for seed := int64(0); seed <= 300; seed++ {
			n := int(seed*37) % 700
			checkNormals(t, k, seeded(seed, int(seed)), make([]float64, n), 1, "seed sweep")
		}
		for n := 0; n <= 2000; n++ {
			checkNormals(t, k, seeded(int64(n)+1000, n%lfsrLen), make([]float64, n), 0.5, "length sweep")
		}
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1.5, -2.25}
		for _, variance := range []float64{0, 5e-324, 1e-300, 1, 1e300, math.Inf(1), math.NaN()} {
			sd := math.Sqrt(variance / 2)
			for _, n := range []int{1, 15, 16, 17, 255, 256, 257, 607, 1213} {
				d := make([]float64, n)
				for i := range d {
					d[i] = specials[i%len(specials)]
				}
				checkNormals(t, k, seeded(int64(n), 3*n), d, sd, "special values")
				if math.IsNaN(variance) {
					out := append([]float64(nil), d...)
					seeded(int64(n), 0).addNormals(k, out, sd)
					for i, v := range out {
						if !math.IsNaN(v) {
							t.Fatalf("%s kernel: variance NaN gave element %d = %v", kernelNames[k], i, v)
						}
					}
				}
			}
		}
	}
}

// drawPath is the branch of NormFloat64 a draw ends on.
type drawPath int

const (
	rectangle    drawPath = iota
	wedgeAccept           // the first word fails its rectangle, the wedge test accepts
	wedgeReject           // a wedge test rejects and the draw starts over
	baseStrip             // the first word fails the rectangle of strip 0
	numDrawPaths          //
)

// firstPath runs NormFloat64's algorithm on rand.New(r) for one draw and
// returns the path its first word took.
func firstPath(r *rand.Rand) drawPath {
	j := int32(r.Uint32())
	i := j & 0x7f
	x := float64(j) * float64(zigWn[i])
	switch {
	case absInt32(j) < zigKn[i]:
		return rectangle
	case i == 0:
		return baseStrip
	case zigFn[i]+float32(r.Float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)):
		return wedgeAccept
	}
	return wedgeReject
}

// TestAddNormalsSlowPaths scans seeds for streams whose draw leaves the
// rectangle by every path — a wedge accept, a wedge reject and the base
// strip's tail — as the 1st, the 16th and the 241st draw of a call (the
// first word of a batch, the last lane of its first sixteen-word group,
// the start of its last group), and holds every kernel to NormFloat64
// on each.
func TestAddNormalsSlowPaths(t *testing.T) {
	for _, at := range []int{0, 15, normalBatch - 16} {
		var found [numDrawPaths]bool
		for seed := int64(0); seed < 200000 && !(found[wedgeAccept] && found[wedgeReject] && found[baseStrip]); seed++ {
			probe := seeded(seed, 0)
			r := rand.New(probe)
			for range at {
				r.NormFloat64()
			}
			p := firstPath(r)
			if p == rectangle || found[p] {
				continue
			}
			found[p] = true
			for _, k := range hostKernels() {
				for _, n := range []int{at + 1, at + 2, at + 40, normalBatch + 5} {
					checkNormals(t, k, seeded(seed, 0), make([]float64, n), 1, "slow path")
				}
			}
		}
		for p := wedgeAccept; p < numDrawPaths; p++ {
			if !found[p] {
				t.Fatalf("no seed under 200000 draws path %d at draw %d", p, at)
			}
		}
	}
}

// TestAddComplexNormalAfterRestore restores a Source mid-stream, once
// after a partial AddComplexNormal batch and once mid-wrap, and requires
// the next AddComplexNormal to write what the uninterrupted Source writes
// and leave the same state.
func TestAddComplexNormalAfterRestore(t *testing.T) {
	for _, cut := range []int{1, 7, 130, 300, 1000} {
		whole := New(int64(cut))
		whole.AddComplexNormal(make([]complex128, cut), 1)
		st := whole.State()
		resumed := New(99)
		if err := resumed.Restore(st); err != nil {
			t.Fatal(err)
		}
		a := whole.AddComplexNormal(make([]complex128, 777), 0.3)
		b := resumed.AddComplexNormal(make([]complex128, 777), 0.3)
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				t.Fatalf("cut %d: element %d after Restore is %v, uninterrupted %v", cut, i, b[i], a[i])
			}
		}
		ws, rs := whole.State(), resumed.State()
		if ws.Tap != rs.Tap || ws.Feed != rs.Feed || !slices.Equal(ws.Vec, rs.Vec) {
			t.Fatalf("cut %d: state after Restore differs from the uninterrupted run", cut)
		}
	}
}

// BenchmarkAddComplexNormal times one receive window's noise (1024
// samples): the dispatched kernel, the Go kernel and the per-sample
// NormFloat64 loop it replaced, in ns per complex sample.
func BenchmarkAddComplexNormal(b *testing.B) {
	const n = 1024
	run := func(b *testing.B, add func(s *Source, dst []complex128)) {
		s, dst := New(1), make([]complex128, n)
		b.ResetTimer()
		for range b.N {
			add(s, dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
	}
	b.Run("dispatched", func(b *testing.B) {
		run(b, func(s *Source, dst []complex128) { s.AddComplexNormal(dst, 1) })
	})
	b.Run("go", func(b *testing.B) {
		run(b, func(s *Source, dst []complex128) { s.src.addNormals(goKernel, floats(dst), math.Sqrt(0.5)) })
	})
	b.Run("rand", func(b *testing.B) {
		run(b, func(s *Source, dst []complex128) {
			sd := math.Sqrt(0.5)
			for i := range dst {
				dst[i] += complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
			}
		})
	})
}
