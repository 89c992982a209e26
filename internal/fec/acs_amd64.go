package fec

import "megamimo/internal/dsp"

// acsKernel is the add-compare-select step trellis runs: acsAVX2 where
// dsp.HasAVX2 reports AVX2 with YMM state saved, acsStep otherwise. It is
// chosen once, before any decode.
var acsKernel = acsStep

func init() {
	if dsp.HasAVX2() {
		acsKernel = acsAVX2
	}
}

// acsAVX2 is acsStep in AVX2 assembly (acs_amd64.s), four butterflies per
// group. It computes every sum and difference with the same operands in
// the same order as acsStep and selects on the same sign bit, so it
// writes the same metric bits and survivor word for every input without a
// NaN in it.
//
//go:noescape
func acsAVX2(mp, np *[numStates]float64, bm *[4]float64) uint64
