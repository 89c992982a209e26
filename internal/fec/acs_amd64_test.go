package fec

import (
	"os"
	"slices"
	"strings"
	"testing"

	"megamimo/internal/dsp"
)

// hostKernels lists the kernels this CPU can run, the Go one first.
func hostKernels() []kernel {
	ks := []kernel{goKernel}
	if dsp.HasAVX2() {
		ks = append(ks, avx2Kernel)
	}
	if dsp.HasAVX512() {
		ks = append(ks, avx512Kernel)
	}
	return ks
}

// TestAVX2KernelDispatched fails when the kernel reports AVX2 or AVX-512
// to user space but the trellis runs a narrower kernel, so a broken CPUID
// or XGETBV check cannot fall back unnoticed. The CPU flags come from
// Linux's /proc/cpuinfo, which lists avx2, avx512f and avx512dq only when
// the kernel also saves their register state; elsewhere the test is
// skipped.
func TestAVX2KernelDispatched(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	want := goKernel
	switch {
	case slices.Contains(flags, "avx2") && slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq"):
		want = avx512Kernel
	case slices.Contains(flags, "avx2"):
		want = avx2Kernel
	}
	if trellisKernel < want {
		t.Fatalf("the CPU reports the %s kernel's features (dsp.HasAVX2 = %v, dsp.HasAVX512 = %v) but the trellis runs the %s kernel",
			kernelNames[want], dsp.HasAVX2(), dsp.HasAVX512(), kernelNames[trellisKernel])
	}
	if got := hostKernels(); trellisKernel != got[len(got)-1] {
		t.Fatalf("the trellis runs the %s kernel, but dsp.HasAVX2 = %v and dsp.HasAVX512 = %v", kernelNames[trellisKernel], dsp.HasAVX2(), dsp.HasAVX512())
	}
}
