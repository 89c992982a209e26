package fec

import "math"

// chunkSteps is the most trellis steps one kernel call runs: trellis
// depunctures that many steps of A and B LLRs at a time into a 4 KB stack
// buffer, so no frame needs a buffer of its whole mother code. It is a
// whole number of periods of every puncturing pattern (1, 2 and 3 steps),
// so every chunk starts at a pattern's first position.
const chunkSteps = 252

// kernel names a trellis kernel. Each runs a chunk of trellis steps with
// the same signature: from the path metrics m and the depunctured LLRs ab
// (A of step i at ab[2i], B at ab[2i+1], no NaN among them) it writes
// step i's survivor word to surv[i], for len(surv) ≤ chunkSteps steps,
// and leaves the new path metrics in m. All three write the same bits.
type kernel uint8

const (
	goKernel     kernel = iota // acsChunkGo, every CPU
	avx2Kernel                 // acsChunkAVX2, amd64 with AVX2
	avx512Kernel               // acsChunkAVX512, amd64 with AVX-512 F and DQ
)

// acsChunkGo is the chunk kernel in Go: the branch metrics of each step,
// then acsStep. It runs where neither assembly kernel can.
func acsChunkGo(m *[numStates]float64, surv []uint64, ab *[2 * chunkSteps]float64) {
	var spare [numStates]float64
	mp, np := m, &spare
	for i := range surv {
		la, lb := ab[2*i], ab[2*i+1]
		// bm[out] for out = A<<1|B; LLR>0 favors bit 0, cost is minimized.
		bm := [4]float64{-la - lb, -la + lb, la - lb, la + lb}
		surv[i] = acsStep(mp, np, &bm)
		mp, np = np, mp
	}
	if mp != m {
		*m = *mp
	}
}

// acsStep is one trellis step's add-compare-select in Go: from the path
// metrics mp and the branch metrics bm it writes the 64 new path metrics
// into np and returns the survivor word (bit s set = state s kept its odd
// predecessor). acsChunkGo runs it, and it is the reference the assembly
// kernels are tested against.
//
// The update runs as a butterfly over next-state pairs: states j and j+32
// share the predecessors 2j and 2j+1, and because generators 133/171 both
// tap the newest and oldest register bits, all four branch metrics of a
// butterfly are ±bm[branchIdx[j]]. That turns the loop into 32 iterations
// of pure adds and compares — no reachability guard, no per-branch sign
// decisions — which is what makes soft decoding of full frames affordable
// on the hot path.
func acsStep(mp, np *[numStates]float64, bm *[4]float64) uint64 {
	var lo, hi uint64 // survivor bits of states j and j+32
	for j := 0; j < numStates/2; j++ {
		a := mp[2*j]
		b := mp[2*j+1]
		v := bm[branchIdx[j]]
		// in = 0 lands in state j: branch metrics +v from 2j, -v from
		// 2j+1. The select is branchless — these comparisons are
		// data-dependent coin flips, and a branchy select mispredicts
		// its way to ~3× the latency. sign(m1-m0) is an exact stand-in
		// for m1 < m0 (IEEE subtraction is zero iff the operands are
		// equal, and ties must pick the even predecessor 2j).
		m0, m1 := a+v, b-v
		sel := uint64(int64(math.Float64bits(m1-m0)) >> 63)
		mb := (math.Float64bits(m0) &^ sel) | (math.Float64bits(m1) & sel)
		np[j] = math.Float64frombits(mb)
		bit := uint64(1) << j
		lo |= sel & bit
		// in = 1 lands in state j+32 with both signs flipped.
		m0, m1 = a-v, b+v
		sel = uint64(int64(math.Float64bits(m1-m0)) >> 63)
		mb = (math.Float64bits(m0) &^ sel) | (math.Float64bits(m1) & sel)
		np[j+numStates/2] = math.Float64frombits(mb)
		hi |= sel & bit
	}
	return lo | hi<<(numStates/2)
}
