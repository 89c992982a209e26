package rng

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"megamimo/internal/dsp"
)

// hostKernels lists the rectangle kernels this CPU can run, the Go one
// first.
func hostKernels() []kernel {
	if dsp.HasAVX512() {
		return []kernel{goKernel, avx512Kernel}
	}
	return []kernel{goKernel}
}

// TestAVX512NormalKernelDispatched fails when the kernel reports AVX-512
// F and DQ to user space but AddComplexNormal runs the Go rectangle
// kernel, so a broken CPUID or XGETBV check cannot fall back unnoticed.
// The CPU flags come from Linux's /proc/cpuinfo, which lists avx512f and
// avx512dq only when the kernel also saves their register state;
// elsewhere the test is skipped.
func TestAVX512NormalKernelDispatched(t *testing.T) {
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
	listed := slices.Contains(flags, "avx2") && slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq")
	if listed && normalKernel != avx512Kernel {
		t.Fatalf("the CPU reports AVX-512 F and DQ (dsp.HasAVX512 = %v) but AddComplexNormal runs the %s kernel", dsp.HasAVX512(), kernelNames[normalKernel])
	}
	if got := hostKernels(); normalKernel != got[len(got)-1] {
		t.Fatalf("AddComplexNormal runs the %s kernel, but dsp.HasAVX512 = %v", kernelNames[normalKernel], dsp.HasAVX512())
	}
}

// TestScanAVX512RectangleEdges holds scanAVX512 to the Go rectangle test
// and draw on the words whose |j| sits nearest kn[i] in every strip, on
// both sides and both signs (|j| = kn[i] exactly occurs in strips 20,
// 65, 102 and 117), and on j = 0, ±1, MaxInt32 and MinInt32: random
// streams reach these edges about once in 2³¹ words.
func TestScanAVX512RectangleEdges(t *testing.T) {
	if !dsp.HasAVX512() {
		t.Skip("no AVX-512 F and DQ")
	}
	js := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	for i := range zigKn {
		for delta := int64(-300); delta <= 300; delta++ {
			for _, sign := range []int64{1, -1} {
				if j := sign * (int64(zigKn[i]) + delta); j >= math.MinInt32 && j <= math.MaxInt32 && int32(j)&0x7f == int32(i) {
					js = append(js, int32(j))
				}
			}
		}
	}
	const sd = 0.7
	for start := 0; start < len(js); start += normalBatch {
		group := js[start:min(start+normalBatch, len(js))]
		var (
			w   [normalBatch]uint64
			y   [normalBatch]float64
			acc batchBits
		)
		for k, j := range group {
			w[k] = uint64(uint32(j))<<31 | uint64(k*0x2545F491)&(1<<31-1)
		}
		scanAVX512(&w, len(group), &y, &acc, sd)
		for k, j := range group {
			i := j & 0x7f
			in := absInt32(j) < zigKn[i]
			if got := acc[k/64]>>(k%64)&1 != 0; got != in {
				t.Fatalf("j = %d (strip %d, kn %d): scanAVX512 says inside = %v, Go %v", j, i, zigKn[i], got, in)
			}
			if want := sd * (float64(j) * float64(zigWn[i])); math.Float64bits(y[k]) != math.Float64bits(want) {
				t.Fatalf("j = %d: scanAVX512 writes %v, Go %v", j, y[k], want)
			}
		}
	}
}
