package dsp

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// cpuinfoFlags returns the CPU flags Linux's /proc/cpuinfo lists, which
// name a vector extension only when the kernel also saves its register
// state; elsewhere it skips t. The dispatch tests hold each kernel's
// init-time choice to them, so a broken CPUID or XGETBV check cannot fall
// back to Go unnoticed.
func cpuinfoFlags(t *testing.T) []string {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return strings.Fields(flags)
		}
	}
	return nil
}

// cpuinfoAVX2 reports whether /proc/cpuinfo lists avx2.
func cpuinfoAVX2(t *testing.T) bool {
	t.Helper()
	return slices.Contains(cpuinfoFlags(t), "avx2")
}

// TestHasAVX512MatchesCPUInfo holds HasAVX512 to /proc/cpuinfo: true
// exactly when Linux lists avx2, avx512f and avx512dq.
func TestHasAVX512MatchesCPUInfo(t *testing.T) {
	flags := cpuinfoFlags(t)
	listed := true
	for _, f := range []string{"avx2", "avx512f", "avx512dq"} {
		listed = listed && slices.Contains(flags, f)
	}
	if got := HasAVX512(); got != listed {
		t.Fatalf("HasAVX512 = %v, but /proc/cpuinfo lists avx2, avx512f and avx512dq: %v", got, listed)
	}
}
