package dsp

// HasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, EBX bit
// 5) and the OS saves the XMM and YMM registers across context switches
// (CPUID leaf 1 OSXSAVE and AVX, then XCR0 bits 1 and 2). It is the one
// feature check behind every AVX2 kernel: the fine-timing correlation
// here and the Viterbi step in fec.
func HasAVX2() bool {
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
