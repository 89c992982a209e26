package dsp

// HasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, EBX bit
// 5) and the OS saves the XMM and YMM registers across context switches
// (CPUID leaf 1 OSXSAVE and AVX, then XCR0 bits 1 and 2). It is the
// feature check behind every AVX2 kernel: the fine-timing correlation and
// the 64-point FFT here, and the Viterbi trellis in fec.
func HasAVX2() bool { return cpuHas(1<<5, 1<<1|1<<2) }

// HasAVX512 reports whether the CPU implements AVX2 and AVX-512 F and DQ
// (CPUID leaf 7, EBX bits 5, 16 and 17) and the OS saves the XMM, YMM,
// opmask and all 32 ZMM registers across context switches (XCR0 bits 1,
// 2, 5, 6 and 7). It is the check behind fec's AVX-512 trellis, which
// uses only 512-bit vectors and so needs no AVX-512 VL.
func HasAVX512() bool {
	return cpuHas(1<<5|1<<16|1<<17, 1<<1|1<<2|1<<5|1<<6|1<<7)
}

// cpuHas reports whether every bit of leaf7EBX is set in CPUID leaf 7's
// EBX and the OS, through XSAVE, saves every register state in xcr0.
func cpuHas(leaf7EBX, xcr0 uint32) bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&xcr0 != xcr0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&leaf7EBX == leaf7EBX
}

// cpuid runs CPUID with EAX and ECX set to its arguments.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)
