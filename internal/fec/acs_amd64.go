package fec

// acsKernel is the add-compare-select step trellis runs: acsStep in SSE2
// assembly (acs_amd64.s), two butterflies per loop iteration. It computes
// every sum and difference with the same operands in the same order as
// acsStep and selects on the same sign bit, so it writes the same metric
// bits and survivor word for every input without a NaN in it. SSE2 is part
// of the amd64 baseline, so there is no CPU-feature check.
//
//go:noescape
func acsKernel(mp, np *[numStates]float64, bm *[4]float64) uint64
