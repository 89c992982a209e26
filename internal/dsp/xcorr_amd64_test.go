package dsp

import "testing"

// TestCrossCorrelateAVX2Dispatched fails when the CPU reports AVX2 to user
// space but CrossCorrelateInto runs the Go step.
func TestCrossCorrelateAVX2Dispatched(t *testing.T) {
	if cpuinfoAVX2(t) && !xcorrAVX2 {
		t.Fatalf("the CPU reports AVX2 (HasAVX2 = %v) but the cross-correlation runs the Go step", HasAVX2())
	}
	if xcorrAVX2 != HasAVX2() {
		t.Fatalf("crossCorrelateKernel runs the AVX2 path: %v, but HasAVX2 = %v", xcorrAVX2, HasAVX2())
	}
}
