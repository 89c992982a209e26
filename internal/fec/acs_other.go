//go:build !amd64

package fec

// acsKernel is the add-compare-select step trellis runs. Without an
// assembly version for this architecture it is acsStep.
func acsKernel(mp, np *[numStates]float64, bm *[4]float64) uint64 {
	return acsStep(mp, np, bm)
}
