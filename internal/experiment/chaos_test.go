package experiment

import (
	"reflect"
	"testing"
)

// TestChaosGracefulDegradation: faults must cost delivery, not correctness —
// at high intensity MegaMIMO still delivers a meaningful fraction of offered
// packets, and the fault-path counters prove the degradation machinery ran.
func TestChaosGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload pipeline")
	}
	res, err := RunChaos([]float64{0, 600}, 4, 1, 0.02, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	calm, storm := res.Points[0], res.Points[1]
	if calm.FaultsInjected != 0 {
		t.Fatalf("intensity 0 injected %d faults", calm.FaultsInjected)
	}
	if calm.MegaMIMODeliveredRate < 0.95 {
		t.Fatalf("fault-free delivered rate %.3f, want ~1", calm.MegaMIMODeliveredRate)
	}
	if storm.FaultsInjected == 0 {
		t.Fatal("high intensity injected nothing")
	}
	if storm.MegaMIMODeliveredRate > calm.MegaMIMODeliveredRate {
		t.Fatalf("faults improved delivery: %.3f > %.3f",
			storm.MegaMIMODeliveredRate, calm.MegaMIMODeliveredRate)
	}
	if storm.MegaMIMODeliveredRate < 0.3 {
		t.Fatalf("delivered rate %.3f under faults — collapse, not degradation",
			storm.MegaMIMODeliveredRate)
	}
	if s := res.String(); s == "" {
		t.Fatal("empty table")
	}
	if b, err := res.JSON(); err != nil || len(b) == 0 {
		t.Fatalf("JSON render: %v", err)
	}
}

// TestChaosDeepEqualReplay: running the identical sweep twice end to end
// yields deep-equal results — nothing inside a cell depends on wall clock or
// global mutable state.
func TestChaosDeepEqualReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload pipeline")
	}
	a, err := RunChaos([]float64{300}, 3, 1, 0.01, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos([]float64{300}, 3, 1, 0.01, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay differs:\n%+v\n%+v", a, b)
	}
}
