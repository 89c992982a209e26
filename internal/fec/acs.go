package fec

import "math"

// acsStep is one trellis step's add-compare-select in Go: from the path
// metrics mp and the branch metrics bm it writes the 64 new path metrics
// into np and returns the survivor word (bit s set = state s kept its odd
// predecessor). It is the step acsKernel runs without AVX2 and off amd64,
// and the reference the assembly is tested against.
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
