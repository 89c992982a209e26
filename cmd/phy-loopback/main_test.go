package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"megamimo/internal/phy"
)

// argsEnv, when set, makes the test binary run main with these
// newline-separated arguments instead of the tests, so a test can drive
// the command in a child process and observe its exit status.
const argsEnv = "PHY_LOOPBACK_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"phy-loopback"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLoopback runs phy-loopback with args in a child process and returns
// its combined output and exit code. A child still running after a minute
// is killed, so a sweep that never ends fails instead of hanging.
func runLoopback(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("phy-loopback %v: %v", args, err)
	return "", 0
}

func TestBadFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-bytes", []string{"-bytes", "-3"}},
		{"-bytes", []string{"-bytes", strconv.Itoa(phy.MaxPSDU + 1)}},
		{"-snr-step", []string{"-snr-step", "0"}},
		{"-snr-step", []string{"-snr-step", "-1"}},
		{"-snr-step", []string{"-snr-step", "NaN"}},
		{"-trials", []string{"-trials", "0"}},
		{"-trials", []string{"-trials", "-2"}},
		{"-snr-hi", []string{"-snr-lo", "10", "-snr-hi", "5"}},
		{"-snr-hi", []string{"-snr-hi", "+Inf"}},
		{"-snr-lo", []string{"-snr-lo", "-Inf"}},
		{"-snr-lo", []string{"-snr-lo", "+Inf", "-snr-hi", "+Inf"}},
		{"-snr-lo", []string{"-snr-lo", "NaN"}},
	} {
		out, code := runLoopback(t, c.args...)
		if code == 0 || !strings.Contains(out, c.flag) || strings.Contains(out, "panic") || strings.Contains(out, "MCS") {
			t.Errorf("phy-loopback %s: exit %d, want a non-zero exit naming %s before any work; output:\n%s",
				strings.Join(c.args, " "), code, c.flag, out)
		}
	}
}

func TestBoundaryFlagsAccepted(t *testing.T) {
	for _, args := range [][]string{
		{"-bytes", "0", "-trials", "1", "-snr-lo", "30", "-snr-hi", "30"},
		{"-bytes", strconv.Itoa(phy.MaxPSDU), "-trials", "1", "-snr-lo", "30", "-snr-hi", "30"},
	} {
		out, code := runLoopback(t, args...)
		if code != 0 || strings.Count(out, "30:100%") != int(phy.NumMCS) {
			t.Errorf("phy-loopback %s: exit %d, want every MCS delivered at 30 dB; output:\n%s",
				strings.Join(args, " "), code, out)
		}
	}
}
