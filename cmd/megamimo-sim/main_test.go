package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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

// TestSeriesWriteFailure checks that a -series-out file the run cannot
// write fails the run, in the workload and the soak mode alike: exit 1
// with an error naming the series, never 0 with a short file.
func TestSeriesWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, args := range [][]string{
		{"-aps", "3", "-clients", "3", "-workload", "cbr", "-load", "6", "-duration", "0.01", "-sample-every", "1"},
		{"-soak", "-aps", "2", "-clients", "2", "-duration", "0.01", "-sample-every", "1"},
	} {
		args = append(args, "-series-out", "/dev/full")
		out, code := runSim(t, args...)
		if code != 1 || !strings.Contains(out, "metrics series") || !strings.Contains(out, "/dev/full") {
			t.Errorf("megamimo-sim %s: exit %d, want 1 naming the series output; output:\n%s",
				strings.Join(args, " "), code, out)
		}
	}
}

// servedRun starts megamimo-sim with args plus -serve on an ephemeral
// loopback port and a long -serve-wait, reads its stdout up to the line
// announcing that wait (the run is over and every output written), and
// returns the server's address and the lines read. The child is killed
// when the test ends.
func servedRun(t *testing.T, args ...string) (string, []string) {
	t.Helper()
	args = append(args, "-serve", "127.0.0.1:0", "-serve-wait", "30s")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	var addr string
	var lines []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if rest, ok := strings.CutPrefix(line, "observability: http://"); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
		if strings.HasPrefix(line, "observability server up for another") {
			if addr == "" {
				t.Fatalf("no observability banner before the run ended:\n%s", strings.Join(lines, "\n"))
			}
			return addr, lines
		}
	}
	t.Fatalf("megamimo-sim %s ended before serving the finished run:\n%s\nstderr:\n%s",
		strings.Join(args, " "), strings.Join(lines, "\n"), stderr.String())
	return "", nil
}

// fetch GETs path from the server at addr.
func fetch(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeProbe drives the -serve endpoints of finished runs: a clean
// workload run answers /healthz 200, and 21 ppm of drift each way (42 ppm
// relative, outside the ±40 ppm mandate) answers 503 citing cfo-mandate;
// /trace opens with the trace header and /metrics carries the joint
// transmission counter. A served soak reports itself done at its last
// checkpoint.
func TestServeProbe(t *testing.T) {
	workload := []string{"-aps", "3", "-clients", "3", "-workload", "cbr", "-load", "6", "-duration", "0.02"}
	for _, tc := range []struct {
		drift      string
		wantStatus int
	}{
		{"0", http.StatusOK},
		{"21", http.StatusServiceUnavailable},
	} {
		addr, _ := servedRun(t, append(workload, "-drift-ppm", tc.drift)...)
		code, health := fetch(t, addr, "/healthz")
		if code != tc.wantStatus || !strings.Contains(health, `"done": true`) {
			t.Errorf("-drift-ppm %s: /healthz %d, want %d and done:\n%s", tc.drift, code, tc.wantStatus, health)
		}
		if tc.wantStatus != http.StatusOK && !strings.Contains(health, `"cfo-mandate"`) {
			t.Errorf("-drift-ppm %s: /healthz does not cite cfo-mandate:\n%s", tc.drift, health)
		}
		if _, trace := fetch(t, addr, "/trace"); !strings.HasPrefix(trace, `{"schema":"megamimo-trace"`) {
			t.Errorf("-drift-ppm %s: /trace does not open with the trace header: %.120q", tc.drift, trace)
		}
		if _, prom := fetch(t, addr, "/metrics"); !strings.Contains(prom, "\ncore_joint_tx_total ") {
			t.Errorf("-drift-ppm %s: /metrics has no core_joint_tx_total line:\n%s", tc.drift, prom)
		}
	}

	addr, lines := servedRun(t, "-soak", "-aps", "3", "-clients", "3", "-load", "12", "-size", "200",
		"-duration", "0.05", "-faults-per-sec", "400", "-sample-every", "4",
		"-checkpoint-every", "16", "-checkpoint-dir", t.TempDir())
	var last string
	for _, line := range lines {
		if p, ok := strings.CutPrefix(line, "checkpoint: "); ok {
			last = p
		}
	}
	if last == "" {
		t.Fatalf("the served soak wrote no checkpoint:\n%s", strings.Join(lines, "\n"))
	}
	var health struct {
		Done           bool   `json:"done"`
		LastCheckpoint string `json:"last_checkpoint"`
	}
	_, body := fetch(t, addr, "/healthz")
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if !health.Done || health.LastCheckpoint != last {
		t.Errorf("soak /healthz reports done=%v at checkpoint %q, want done at %q:\n%s",
			health.Done, health.LastCheckpoint, last, body)
	}
}
