package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/phy"
	"megamimo/internal/tracefmt"
)

// argsEnv, when set, makes the test binary run main with these
// newline-separated arguments instead of the tests, so a test can drive
// the command in a child process and observe its exit status.
const argsEnv = "MEGAMIMO_SIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"megamimo-sim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs megamimo-sim with args in a child process and returns its
// combined output and exit code.
func runSim(t *testing.T, args ...string) (string, int) {
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
	t.Fatalf("megamimo-sim %v: %v", args, err)
	return "", 0
}

// TestSizeOutOfRangeRejected covers every range-checked flag: each value
// a run cannot use exits 1 with a message naming the flag, in every mode
// that reads it, and never panics. So does each flag set for a mode that
// would ignore it.
func TestSizeOutOfRangeRejected(t *testing.T) {
	tooBig := strconv.Itoa(phy.MaxPSDU + 1)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-size", []string{"-size", "-5"}},
		{"-size", []string{"-size", "0"}},
		{"-size", []string{"-size", tooBig}},
		{"-size", []string{"-size", "70000"}},
		{"-size", []string{"-workload", "cbr", "-size", "-5"}},
		{"-size", []string{"-workload", "poisson", "-size", "70000"}},
		{"-size", []string{"-chaos", "mixed", "-size", "-5"}},
		{"-size", []string{"-soak", "-size", "0"}},
		{"-size", []string{"-soak", "-size", "70000"}},
		{"-duration", []string{"-workload", "cbr", "-duration", "-1"}},
		{"-duration", []string{"-workload", "cbr", "-duration", "0"}},
		{"-duration", []string{"-chaos", "lossy", "-duration", "0"}},
		{"-duration", []string{"-soak", "-duration", "-1"}},
		{"-load", []string{"-workload", "cbr", "-load", "-5"}},
		{"-load", []string{"-chaos", "mixed", "-load", "0"}},
		{"-load", []string{"-soak", "-load", "-5"}},
		{"-packets", []string{"-packets", "-1"}},
		{"-packets", []string{"-packets", "0"}},
		{"-snr-lo", []string{"-snr-lo", "30", "-snr-hi", "10"}},
		{"-snr-lo", []string{"-workload", "cbr", "-snr-lo", "30", "-snr-hi", "10"}},
		{"-checkpoint-every", []string{"-soak", "-checkpoint-every", "-5"}},
		{"-workers", []string{"-soak", "-workers", "-3"}},
		{"-sample-every", []string{"-workload", "cbr", "-sample-every", "-5"}},
		{"-sample-every", []string{"-soak", "-sample-every", "-1"}},
		{"-faults-per-sec", []string{"-soak", "-faults-per-sec", "-50"}},
		{"-faults-per-sec", []string{"-soak", "-faults-per-sec", "NaN"}},
		{"-soak-drift-at", []string{"-soak", "-soak-drift-at", "-1"}},
		{"-soak-drift-at", []string{"-soak", "-soak-drift-at", "NaN"}},
		// Soak-only flags outside -soak, in batch, workload and chaos mode.
		{"-faults-per-sec", []string{"-workload", "cbr", "-faults-per-sec", "400"}},
		{"-checkpoint-every", []string{"-workload", "cbr", "-checkpoint-every", "8"}},
		{"-checkpoint-dir", []string{"-chaos", "mixed", "-checkpoint-dir", "ckpt"}},
		{"-resume", []string{"-resume", "soak-00000012.ckpt"}},
		{"-workers", []string{"-workers", "1"}},
		{"-workers", []string{"-chaos", "lead-crash", "-workers", "0"}},
		{"-soak-drift-at", []string{"-workload", "poisson", "-drift-ppm", "21", "-soak-drift-at", "0.01"}},
		// Flags the soak ignores.
		{"-prom-out", []string{"-soak", "-prom-out", "soak.prom"}},
		{"-workload", []string{"-soak", "-workload", "cbr"}},
		{"-chaos", []string{"-soak", "-chaos", "mixed"}},
		// Flags only other modes read.
		{"-packets", []string{"-workload", "cbr", "-packets", "3"}},
		{"-packets", []string{"-chaos", "lossy", "-packets", "3"}},
		{"-workload", []string{"-workload", "cbr", "-chaos", "lossy"}},
		{"-duration", []string{"-duration", "0.01"}},
		{"-load", []string{"-load", "6"}},
		{"-sample-every", []string{"-packets", "2", "-sample-every", "8"}},
		// Flags that do nothing without another one.
		{"-serve", []string{"-aps", "2", "-clients", "2", "-packets", "1", "-serve-wait", "1ms"}},
		{"-drift-ppm", []string{"-soak", "-aps", "2", "-clients", "2", "-duration", "0.005", "-soak-drift-at", "0.001"}},
		{"-drift-ppm", []string{"-soak", "-aps", "2", "-clients", "2", "-duration", "0.005", "-drift-ppm", "0", "-soak-drift-at", "0.001"}},
	} {
		out, code := runSim(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.flag) || strings.Contains(out, "panic") {
			t.Errorf("megamimo-sim %s: exit %d, want 1 with a %s error; output:\n%s",
				strings.Join(tc.args, " "), code, tc.flag, out)
		}
	}
}

// TestTraceViewFlagsUndefined checks the trace has one output, the
// -trace-out JSONL file: the printed timeline and the Chrome format are
// megamimo-trace commands over it, so -trace and -trace-format exit 2 as
// undefined flags.
func TestTraceViewFlagsUndefined(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-trace", []string{"-trace"}},
		{"-trace-format", []string{"-trace-out", filepath.Join(t.TempDir(), "t.json"), "-trace-format", "chrome"}},
	} {
		out, code := runSim(t, tc.args...)
		if want := "flag provided but not defined: " + tc.flag; code != 2 || !strings.Contains(out, want) {
			t.Errorf("megamimo-sim %s: exit %d, want 2 naming %q; output:\n%s",
				strings.Join(tc.args, " "), code, want, out)
		}
	}
}

// TestSizeBoundsAccepted runs each range-checked flag at its boundary
// value and expects a completed run.
func TestSizeBoundsAccepted(t *testing.T) {
	small := []string{"-aps", "2", "-clients", "2"}
	soak := append([]string{"-soak", "-duration", "0.005"}, small...)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append([]string{"-packets", "1", "-size", "1"}, small...), "MegaMIMO throughput"},
		{append([]string{"-packets", "1", "-size", strconv.Itoa(phy.MaxPSDU)}, small...), "MegaMIMO throughput"},
		{append([]string{"-workload", "cbr", "-duration", "0.005", "-sample-every", "0"}, small...), "gain under demand"},
		{append([]string{"-workers", "0"}, soak...), "soak complete"},
		{append([]string{"-faults-per-sec", "0"}, soak...), "soak complete"},
		{append([]string{"-drift-ppm", "21", "-soak-drift-at", "0"}, soak...), "soak complete"},
	} {
		out, code := runSim(t, tc.args...)
		if code != 0 || !strings.Contains(out, tc.want) {
			t.Errorf("megamimo-sim %s: exit %d; output:\n%s", strings.Join(tc.args, " "), code, out)
		}
	}
}

// TestChaosTailContinuesNumbering checks a chaos run's -trace-out file,
// which holds only the recovered tail: its seq keeps counting from the
// fault window rather than restarting, rises strictly, and no span ID is
// opened twice.
func TestChaosTailContinuesNumbering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	if out, code := runSim(t, "-chaos", "lead-crash", "-duration", "0.01", "-trace-out", path); code != 0 {
		t.Fatalf("exit %d; output:\n%s", code, out)
	}
	_, events, err := tracefmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("the chaos tail traced no events")
	}
	if events[0].Seq <= 0 {
		t.Fatalf("the tail starts at seq %d, not continuing the run's numbering", events[0].Seq)
	}
	opened := map[int64]bool{}
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("seq %d follows %d at event %d", e.Seq, events[i-1].Seq, i)
		}
		if e.Ph == core.PhBegin {
			if opened[e.Span] {
				t.Fatalf("span %d opened twice (event %d)", e.Span, i)
			}
			opened[e.Span] = true
		}
	}
}
