package experiment

import (
	"math"
	"strings"
	"testing"

	psync "megamimo/internal/sync"
)

// quickSweep is the smallest grid covering the acceptance surface: all
// three shipping strategies across 0/10/20 ppm drift plus the mixed chaos
// scenario.
func quickSweep() (*SyncSweepResult, error) {
	return RunSyncSweep(nil, nil, 2, 2, 0.005, 1)
}

// TestSyncSweepCoversAcceptanceGrid checks the default table shape: three
// strategies × (three drift points + chaos), every cell populated.
func TestSyncSweepCoversAcceptanceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed-loop grid")
	}
	r, err := quickSweep()
	if err != nil {
		t.Fatal(err)
	}
	wantConds := []string{"0 ppm", "10 ppm", "20 ppm", "chaos mixed"}
	wantStrats := []string{"header", "airsync", "beamsync"}
	if len(r.Rows) != len(wantConds)*len(wantStrats) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(wantConds)*len(wantStrats))
	}
	i := 0
	for _, s := range wantStrats {
		for _, c := range wantConds {
			row := r.Rows[i]
			i++
			if row.Strategy != s || row.Condition != c {
				t.Errorf("row %d is (%s, %s), want (%s, %s)", i-1, row.Strategy, row.Condition, s, c)
			}
			if row.MegaMIMOMbps <= 0 {
				t.Errorf("(%s, %s): no throughput delivered", s, c)
			}
			if !(row.MedianPhaseErrRad >= 0) || !(row.P95PhaseErrRad >= row.MedianPhaseErrRad) {
				t.Errorf("(%s, %s): malformed phase stats median=%v p95=%v",
					s, c, row.MedianPhaseErrRad, row.P95PhaseErrRad)
			}
		}
	}
	out := r.String()
	for _, want := range append(wantConds, wantStrats...) {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestSyncSweepPhaseBudget is the head-to-head property the paper's §7
// budget imposes: every shipping strategy holds its median |phase error|
// inside π/18 at relative drifts up to the 20 ppm point.
func TestSyncSweepPhaseBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed-loop grid")
	}
	r, err := quickSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Condition == "chaos mixed" {
			continue // chaos rows include deliberately corrupted headers
		}
		if row.MedianPhaseErrRad > math.Pi/18 {
			t.Errorf("(%s, %s): median |phase err| %.4f rad exceeds the π/18 budget",
				row.Strategy, row.Condition, row.MedianPhaseErrRad)
		}
	}
}

// TestSyncSweepMistunedVariantDegrades pins the test-only canary's
// mechanism: the deliberately mistuned BeamSync inflates its CFO estimate
// ~100× relative to the correctly tuned one under the same drift.
func TestSyncSweepMistunedVariantDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed-loop grid")
	}
	conds := []SyncCondition{{DriftPPM: 10}}
	r, err := RunSyncSweep([]psync.Strategy{psync.NewBeamSync(), psync.BeamSync{IntervalScale: 0.01}}, conds, 2, 2, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	tuned, mistuned := r.Rows[0], r.Rows[1]
	if mistuned.MedianPhaseErrRad <= tuned.MedianPhaseErrRad {
		t.Errorf("mistuned median %.4f rad not worse than tuned %.4f rad",
			mistuned.MedianPhaseErrRad, tuned.MedianPhaseErrRad)
	}
}
