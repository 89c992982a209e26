package fec

import (
	"math"
	"math/rand"
	"testing"
)

// kernelNames label each kernel in failures and benchmarks.
var kernelNames = [...]string{goKernel: "Go", avx2Kernel: "AVX2", avx512Kernel: "AVX-512"}

// withKernel makes trellis run kernel k until the test ends.
func withKernel(tb testing.TB, k kernel) {
	saved := trellisKernel
	trellisKernel = k
	tb.Cleanup(func() { trellisKernel = saved })
}

// trellisWith is the trellis as one step function call per trellis step
// over depunctured LLRs, the shape trellis had before its chunk kernels;
// with acsStep it is the reference every kernel's whole-frame decode is
// held to.
func trellisWith(dst []byte, llr []float64, rate Rate, step func(mp, np *[numStates]float64, bm *[4]float64) uint64) {
	total := len(dst) + constraintLen - 1
	survivors := make([]uint64, total)
	var mp, np [numStates]float64
	for s := 1; s < numStates; s++ {
		mp[s] = unreachable
	}
	pat := rate.pattern()
	src, p := 0, 0
	for i := range survivors {
		var ab [2]float64
		for k := range ab {
			if pat[p] {
				if l := llr[src]; !math.IsNaN(l) {
					ab[k] = l
				}
				src++
			}
			if p++; p == len(pat) {
				p = 0
			}
		}
		la, lb := ab[0], ab[1]
		bm := [4]float64{-la - lb, -la + lb, la - lb, la + lb}
		survivors[i] = step(&mp, &np, &bm)
		mp = np
	}
	state := 0
	for i := total - 1; i >= 0; i-- {
		if i < len(dst) {
			dst[i] = byte(state >> (constraintLen - 2))
		}
		state = (state<<1)&(numStates-1) | int(survivors[i]>>state&1)
	}
}

// sameMetrics reports whether a and b hold the same bits.
func sameMetrics(a, b *[numStates]float64) bool {
	for s := range a {
		if math.Float64bits(a[s]) != math.Float64bits(b[s]) {
			return false
		}
	}
	return true
}

// chunkLLR draws one mother-code LLR: a special value (±0, ±Inf,
// subnormals, magnitudes near unreachable, small integers that tie), an
// integer, a Gaussian, or NaN, which depunctures to 0. With saturated set
// a third of the LLRs are ±Inf, as from a saturated demapper: their
// branch metrics are infinite or NaN (Inf−Inf), and so, within a few
// steps, are many path metrics.
func chunkLLR(r *rand.Rand, saturated bool) float64 {
	switch {
	case r.Intn(12) == 0:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | r.Uint64()>>13 | r.Uint64()&(1<<63))
	case saturated && r.Intn(3) == 0:
		return math.Inf(1 - 2*r.Intn(2))
	}
	return acsValue(r)
}

// TestChunkKernelsMatchGoStep holds every kernel the host can run, each
// called directly, to a plain loop of acsStep: the same survivor words
// and, after every chunk, the same metric bits. Step counts run from 1 to
// 1200 of both parities, around every chunk boundary. The LLRs, from
// chunkLLR (saturated in half the runs), are depunctured at each rate,
// the metrics start from the trellis's start state or at random, and the
// steps are cut into chunks both as trellis cuts them and at random
// lengths, so chunks start on odd steps too.
func TestChunkKernelsMatchGoStep(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	counts := []int{}
	for n := 1; n <= 24; n++ {
		counts = append(counts, n)
	}
	for _, b := range []int{chunkSteps, 2 * chunkSteps, 3 * chunkSteps, 4 * chunkSteps} {
		counts = append(counts, b-2, b-1, b, b+1, b+2)
	}
	for range 40 {
		counts = append(counts, 25+r.Intn(1175))
	}
	counts = append(counts, 1199, 1200)
	for _, rate := range allRates {
		pat := rate.pattern()
		for _, n := range counts {
			// The depunctured LLRs of n steps: 0 where rate punctures or
			// the LLR is NaN.
			ab := make([]float64, 2*n)
			saturated := r.Intn(2) == 0
			for i := range ab {
				if l := chunkLLR(r, saturated); pat[i%len(pat)] && !math.IsNaN(l) {
					ab[i] = l
				}
			}
			var start [numStates]float64
			if r.Intn(4) == 0 {
				for s := range start {
					start[s] = acsValue(r)
				}
			} else {
				for s := 1; s < numStates; s++ {
					start[s] = unreachable
				}
			}
			// The chunk lengths: trellis's, or random ones.
			var cuts []int
			for left := n; left > 0; {
				c := min(left, chunkSteps)
				if r.Intn(2) == 0 {
					c = 1 + r.Intn(c)
				}
				cuts = append(cuts, c)
				left -= c
			}
			// The Go step loop, with its metrics at the end of each chunk.
			want := make([]uint64, n)
			wantAt := make([][numStates]float64, len(cuts))
			mp := start
			step := 0
			for c, cut := range cuts {
				for range cut {
					var np [numStates]float64
					la, lb := ab[2*step], ab[2*step+1]
					bm := [4]float64{-la - lb, -la + lb, la - lb, la + lb}
					want[step] = acsStep(&mp, &np, &bm)
					mp = np
					step++
				}
				wantAt[c] = mp
			}
			for _, k := range hostKernels() {
				got := make([]uint64, n)
				m := start
				step := 0
				for c, cut := range cuts {
					var chunk [2 * chunkSteps]float64
					copy(chunk[:], ab[2*step:2*(step+cut)])
					acsChunk(k, &m, got[step:step+cut], &chunk)
					step += cut
					if !sameMetrics(&m, &wantAt[c]) {
						t.Fatalf("%s kernel, rate %s, %d steps: metrics after chunk %d (step %d) differ from the Go step's", kernelNames[k], rate, n, c, step)
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s kernel, rate %s, %d steps: step %d survivors %#x, Go step %#x", kernelNames[k], rate, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
