package fec

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"megamimo/internal/dsp"
)

// TestAVX2KernelDispatched fails when the kernel reports AVX2 to user
// space but the trellis runs the Go step, so a broken CPUID or XGETBV
// check cannot fall back to Go unnoticed. The CPU flags come from Linux's
// /proc/cpuinfo, which lists avx2 only when the kernel also saves YMM
// state; elsewhere the test is skipped.
func TestAVX2KernelDispatched(t *testing.T) {
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
	dispatched := reflect.ValueOf(acsKernel).Pointer() == reflect.ValueOf(acsAVX2).Pointer()
	if reported && !dispatched {
		t.Fatalf("the CPU reports AVX2 (dsp.HasAVX2 = %v) but the trellis runs the Go step", dsp.HasAVX2())
	}
	if dispatched != dsp.HasAVX2() {
		t.Fatalf("acsKernel is the AVX2 step: %v, but dsp.HasAVX2 = %v", dispatched, dsp.HasAVX2())
	}
}
