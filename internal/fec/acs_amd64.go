package fec

import "megamimo/internal/dsp"

// trellisKernel is the kernel trellis runs, chosen once, before any
// decode: acsChunkAVX512 where dsp.HasAVX512 reports AVX-512 F and DQ with
// ZMM state saved, else acsChunkAVX2 where dsp.HasAVX2 reports AVX2, else
// acsChunkGo.
var trellisKernel = func() kernel {
	switch {
	case dsp.HasAVX512():
		return avx512Kernel
	case dsp.HasAVX2():
		return avx2Kernel
	}
	return goKernel
}()

// acsChunk runs kernel k on one chunk. It branches on k rather than
// calling through a function value, which would make trellis's stack
// buffers escape to the heap.
func acsChunk(k kernel, m *[numStates]float64, surv []uint64, ab *[2 * chunkSteps]float64) {
	switch k {
	case avx512Kernel:
		acsChunkAVX512(m, surv, ab)
	case avx2Kernel:
		acsChunkAVX2(m, surv, ab)
	default:
		acsChunkGo(m, surv, ab)
	}
}

// acsChunkAVX2 is acsChunkGo in AVX2 assembly (acs_amd64.s): per step the
// branch metrics in one YMM register, then eight groups of four
// butterflies between m and a second metric array in its frame. It
// computes every sum and difference with the same operands in the same
// order as acsChunkGo and selects on the same sign bits, so it writes the
// same metric bits and survivor words.
//
//go:noescape
func acsChunkAVX2(m *[numStates]float64, surv []uint64, ab *[2 * chunkSteps]float64)

// acsChunkAVX512 is acsChunkGo in AVX-512 assembly (acs512_amd64.s),
// holding all 64 path metrics in eight ZMM registers from entry to exit:
// per step, four groups of eight butterflies. It writes the same metric
// bits and survivor words as acsChunkGo, for the same reasons as
// acsChunkAVX2.
//
//go:noescape
func acsChunkAVX512(m *[numStates]float64, surv []uint64, ab *[2 * chunkSteps]float64)
