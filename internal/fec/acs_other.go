//go:build !amd64

package fec

// trellisKernel is the kernel trellis runs. Without an assembly version
// for this architecture it is acsChunkGo.
var trellisKernel = goKernel

// acsChunk runs acsChunkGo; k is always goKernel here.
func acsChunk(k kernel, m *[numStates]float64, surv []uint64, ab *[2 * chunkSteps]float64) {
	acsChunkGo(m, surv, ab)
}
