package experiment

import (
	"testing"

	"megamimo/internal/traffic"
)

// TestWorkloadDeterministicAcrossWorkers is the workload sweep's row of
// the worker-invariance table: the result is the same at one worker and
// at four.
func TestWorkloadDeterministicAcrossWorkers(t *testing.T) {
	runBoth(t, func(t *testing.T) (any, error) {
		return RunWorkload([]float64{2, 8}, 2, 2, traffic.Poisson, 0.005, 7)
	})
}

func TestWorkloadSaturationGain(t *testing.T) {
	// At a demand far beyond one AP's unicast capacity, joint
	// transmission must deliver more than the equal-share baseline —
	// the paper's headline claim, restated in workload terms.
	r, err := RunWorkload([]float64{16}, 2, 2, traffic.Poisson, 0.01, 11)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	p := r.Points[0]
	if p.MegaMIMOMbps <= 0 {
		t.Fatal("MegaMIMO delivered nothing at saturation")
	}
	if p.MegaMIMOMbps <= p.BaselineMbps {
		t.Fatalf("no saturation gain: MegaMIMO %.2f Mb/s vs 802.11 %.2f Mb/s",
			p.MegaMIMOMbps, p.BaselineMbps)
	}
}
