package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// argsEnv, when set, makes the test binary run main with these
// newline-separated arguments instead of the tests, so a test can drive
// the command in a child process and observe its exit status.
const argsEnv = "MEGAMIMO_PERFGATE_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"megamimo-perfgate"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// snapshot is a small suite of figure records.
func snapshot() []figMetrics {
	return []figMetrics{
		{Figure: "fig5", NsPerOp: 150_000, AllocsPerOp: 190, BytesPerOp: 26_000, Workers: 1, Output: "Fig 5\n"},
		{Figure: "fig8", NsPerOp: 800_000_000, AllocsPerOp: 100_000, BytesPerOp: 290_000_000, Workers: 1, Output: "Fig 8\n"},
		{Figure: "fig9", NsPerOp: 1_200_000_000, AllocsPerOp: 130_000, BytesPerOp: 330_000_000, Workers: 1, Output: "Fig 9\n2  4.1  8.2\n"},
		{Figure: "chaos", NsPerOp: 400_000_000, AllocsPerOp: 35_000, BytesPerOp: 64_000_000, Workers: 1, Output: "Chaos\n"},
		{Figure: "workload", NsPerOp: 190_000_000, AllocsPerOp: 18_000, BytesPerOp: 31_000_000, Workers: 1, Output: "Demand\n"},
	}
}

// writeRun writes records as a megamimo-bench -json file in dir.
func writeRun(t *testing.T, dir, name string, records []figMetrics) string {
	t.Helper()
	b, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGate runs megamimo-perfgate with args in a child process and returns
// its combined output and exit code.
func runGate(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("megamimo-perfgate %v: %v", args, err)
	return "", 0
}

func TestGate(t *testing.T) {
	for _, c := range []struct {
		name   string
		plant  func(m *figMetrics) // applied to fig9 of every fresh run
		status string              // fig9's expected status
		code   int
	}{
		{"clean", func(*figMetrics) {}, "ok", 0},
		{"bytes+20%", func(m *figMetrics) { m.BytesPerOp = m.BytesPerOp * 6 / 5 }, "BYTES REGRESSION", 1},
		{"allocs+20%", func(m *figMetrics) { m.AllocsPerOp = m.AllocsPerOp * 6 / 5 }, "ALLOC REGRESSION", 1},
		{"time+25%", func(m *figMetrics) { m.NsPerOp = m.NsPerOp * 5 / 4 }, "TIME REGRESSION", 1},
		{"bytes+10%", func(m *figMetrics) { m.BytesPerOp = m.BytesPerOp * 11 / 10 }, "ok", 0},
		{"output", func(m *figMetrics) { m.Output = strings.Replace(m.Output, "8.2", "8.3", 1) }, "OUTPUT CHANGED", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeRun(t, dir, "BENCH_PERF.json", snapshot())
			var fresh []string
			for _, name := range []string{"perf1.json", "perf2.json"} {
				run := snapshot()
				c.plant(&run[2])
				fresh = append(fresh, writeRun(t, dir, name, run))
			}
			out, code := runGate(t, append([]string{"-snapshot", base}, fresh...)...)
			var fig9 string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "fig9 ") {
					fig9 = line
				}
			}
			if code != c.code || !strings.HasSuffix(fig9, c.status) {
				t.Errorf("exit %d, want %d with fig9 %s; output:\n%s", code, c.code, c.status, out)
			}
		})
	}
}

// TestGateTakesMinimumOverRuns: a regression in one fresh run only is
// noise the per-figure minimum filters out.
func TestGateTakesMinimumOverRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeRun(t, dir, "BENCH_PERF.json", snapshot())
	noisy := snapshot()
	noisy[2].BytesPerOp *= 2
	noisy[2].NsPerOp *= 2
	out, code := runGate(t, "-snapshot", base,
		writeRun(t, dir, "perf1.json", noisy), writeRun(t, dir, "perf2.json", snapshot()))
	if code != 0 || !strings.Contains(out, "perf gate clean") {
		t.Errorf("exit %d, want a clean pass; output:\n%s", code, out)
	}
}
