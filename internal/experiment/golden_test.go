package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The testdata goldens are the exact bytes `megamimo-bench -quick
// -workers=1 fig8` / `fig9` printed before the synchronization loop moved
// into internal/sync. sync.HeaderSync is the paper's scheme verbatim, so
// the pipeline must reproduce them byte-for-byte: any drift here means a
// change to the sync loop changed a float operation, not just moved it.

// quickFig8 renders fig8 exactly as the CLI's -quick path does.
func quickFig8() (string, error) {
	r, err := RunFig8(6, 1, 1)
	if err != nil {
		return "", err
	}
	return fmt.Sprintln(r) +
		fmt.Sprintf("high-SNR INR slope: %.3f dB per AP-client pair (paper: ~0.13)\n\n",
			r.SlopePerPair(HighSNR.Name)), nil
}

// quickFig9 renders fig9 exactly as the CLI's -quick path does.
func quickFig9() (string, error) {
	r, err := RunFig9([]int{2, 3, 4, 5, 6}, 2, 2, 1)
	if err != nil {
		return "", err
	}
	return fmt.Sprintln(r), nil
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from the pre-refactor golden %s\n--- want\n%s--- got\n%s", path, want, got)
	}
}

func TestHeaderSyncMatchesPreRefactorFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	defer SetWorkers(0)
	SetWorkers(1)
	out, err := quickFig8()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-fig8.txt", out)
}

func TestHeaderSyncMatchesPreRefactorFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pipeline")
	}
	defer SetWorkers(0)
	SetWorkers(1)
	out, err := quickFig9()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-fig9.txt", out)
}
