package main

import (
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"megamimo/internal/phy"
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

func TestSizeOutOfRangeRejected(t *testing.T) {
	tooBig := strconv.Itoa(phy.MaxPSDU + 1)
	for _, args := range [][]string{
		{"-size", "-5"},
		{"-size", "0"},
		{"-size", tooBig},
		{"-size", "70000"},
		{"-workload", "cbr", "-size", "-5"},
		{"-workload", "poisson", "-size", "70000"},
		{"-chaos", "mixed", "-size", "-5"},
		{"-soak", "-size", "0"},
		{"-soak", "-size", "70000"},
	} {
		out, code := runSim(t, args...)
		if code != 1 || !strings.Contains(out, "-size") || strings.Contains(out, "panic") {
			t.Errorf("megamimo-sim %s: exit %d, want 1 with a -size error; output:\n%s",
				strings.Join(args, " "), code, out)
		}
	}
}

func TestSizeBoundsAccepted(t *testing.T) {
	for _, size := range []int{1, phy.MaxPSDU} {
		out, code := runSim(t, "-aps", "2", "-clients", "2", "-packets", "1", "-size", strconv.Itoa(size))
		if code != 0 || !strings.Contains(out, "MegaMIMO throughput") {
			t.Errorf("-size %d: exit %d; output:\n%s", size, code, out)
		}
	}
}
