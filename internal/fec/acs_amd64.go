package fec

// acsKernel is the add-compare-select step trellis runs: acsAVX2 where
// the CPU has AVX2 and the OS saves YMM state, acsStep otherwise. It is
// chosen once, before any decode.
var acsKernel = acsStep

func init() {
	if hasAVX2() {
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

// hasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, EBX bit
// 5) and the OS saves the XMM and YMM registers across context switches
// (CPUID leaf 1 OSXSAVE and AVX, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid runs CPUID with EAX and ECX set to its arguments.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)
