package dsp

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCrossCorrelateAVX2Dispatched fails when the kernel reports AVX2 to
// user space but CrossCorrelateInto runs the Go step, so a broken CPUID or
// XGETBV check cannot fall back to Go unnoticed. The CPU flags come from
// Linux's /proc/cpuinfo, which lists avx2 only when the kernel also saves
// YMM state; elsewhere the test is skipped.
func TestCrossCorrelateAVX2Dispatched(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	reported := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			reported = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if reported && !xcorrAVX2 {
		t.Fatalf("the CPU reports AVX2 (HasAVX2 = %v) but the cross-correlation runs the Go step", HasAVX2())
	}
	if xcorrAVX2 != HasAVX2() {
		t.Fatalf("crossCorrelateKernel runs the AVX2 path: %v, but HasAVX2 = %v", xcorrAVX2, HasAVX2())
	}
}
