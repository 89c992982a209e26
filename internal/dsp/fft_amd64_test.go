package dsp

import "testing"

// TestFFTAVX2Dispatched fails when the CPU reports AVX2 to user space but
// 64-point transforms run the Go steps, and when a plan of another size
// carries the kernel's tables.
func TestFFTAVX2Dispatched(t *testing.T) {
	kernel := MustPlanFor(64).planes != nil
	if cpuinfoAVX2(t) && !kernel {
		t.Fatalf("the CPU reports AVX2 (HasAVX2 = %v) but the 64-point FFT runs the Go steps", HasAVX2())
	}
	if kernel != HasAVX2() {
		t.Fatalf("the 64-point FFT runs fft64AVX2: %v, but HasAVX2 = %v", kernel, HasAVX2())
	}
	for _, n := range []int{32, 128} {
		if MustFFTPlan(n).planes != nil {
			t.Fatalf("the %d-point plan carries fft64AVX2's tables", n)
		}
	}
}
