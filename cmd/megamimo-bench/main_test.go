package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv, when set, makes the test binary run main with these
// newline-separated arguments instead of the tests, so a test can drive
// the command in a child process and observe its exit status.
const argsEnv = "MEGAMIMO_BENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"megamimo-bench"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs megamimo-bench with args in a child process and returns
// its standard output, standard error and exit code.
func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("megamimo-bench %v: %v", args, err)
	return "", "", 0
}

func TestBadArgumentsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // the stderr text naming the bad value
	}{
		{[]string{"-quick", "nosuchfig"}, `unknown figure "nosuchfig"`},
		{[]string{"-quick", "-json", "nosuchfig"}, "usage: megamimo-bench"},
		{[]string{"-quick", "fig5", "fig6"}, "usage: megamimo-bench"},
		{[]string{"-topologies=0", "fig9"}, "-topologies"},
		{[]string{"-quick", "-topologies=0", "fig9"}, "-topologies"},
		{[]string{"-rounds=0", "fig9"}, "-rounds"},
		{[]string{"-quick", "-rounds=-3", "fig12"}, "-rounds"},
		{[]string{"-max-aps=1", "fig9"}, "-max-aps"},
		{[]string{"-max-aps=-2", "fig8"}, "-max-aps"},
		{[]string{"-quick", "-max-aps=1", "fig8"}, "-max-aps"},
		{[]string{"-workers=-1", "fig5"}, "-workers"},
		// A sweep is not traced: megamimo-sim -trace-out traces one network.
		{[]string{"-quick", "-trace-out", "x", "workload"}, "flag provided but not defined: -trace-out"},
	} {
		stdout, stderr, code := runBench(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("megamimo-bench %s: exit %d, want 2 naming %q; stdout %q, stderr %q",
				strings.Join(c.args, " "), code, c.want, stdout, stderr)
		}
	}
}

func TestBoundaryArgumentsAccepted(t *testing.T) {
	stdout, stderr, code := runBench(t, "-topologies=1", "-rounds=1", "-max-aps=2", "-workers=0", "fig5")
	if code != 0 || !strings.Contains(stdout, "Fig 5") {
		t.Errorf("boundary flags: exit %d; stdout %q, stderr %q", code, stdout, stderr)
	}
}
