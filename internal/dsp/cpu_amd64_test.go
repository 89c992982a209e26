package dsp

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// cpuinfoAVX2 reports whether Linux's /proc/cpuinfo lists avx2, which it
// does only when the kernel also saves YMM state; elsewhere it skips t.
// The dispatch tests hold each kernel's init-time choice to it, so a
// broken CPUID or XGETBV check cannot fall back to Go unnoticed.
func cpuinfoAVX2(t *testing.T) bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return slices.Contains(strings.Fields(flags), "avx2")
		}
	}
	return false
}
