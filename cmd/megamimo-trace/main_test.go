package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"megamimo/internal/core"
)

// argsEnv, when set, makes the test binary run main with these
// newline-separated arguments instead of the tests, so a test can drive
// the command in a child process and observe its exit status.
const argsEnv = "MEGAMIMO_TRACE_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"megamimo-trace"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	cleanArgs = []string{"-aps", "3", "-clients", "3", "-workload", "cbr", "-load", "6", "-duration", "0.01", "-sample-every", "8",
		"-trace-out", "@clean.jsonl", "-stream-out", "@clean-stream.jsonl", "-series-out", "@series.jsonl", "-prom-out", "@clean.prom"}
	chromeArgs = []string{"-aps", "3", "-clients", "3", "-workload", "cbr", "-load", "6", "-duration", "0.01",
		"-trace-out", "@clean.chrome.json", "-trace-format", "chrome"}
	// 21 ppm of drift puts the slaves 42 ppm off the lead carrier, outside
	// the ±40 ppm mandate. The online check judges an AP only after 8 sync
	// headers, which takes 0.02 s of run.
	driftArgs = []string{"-aps", "3", "-clients", "3", "-workload", "cbr", "-load", "6", "-duration", "0.02",
		"-drift-ppm", "21", "-trace-out", "@drift.jsonl", "-stream-out", "@drift-stream.jsonl"}
	// soakBase is a checkpointed soak whose second half runs under 21 ppm
	// of drift; its first checkpoint is soak-00000012.ckpt.
	soakBase = []string{"-soak", "-aps", "3", "-clients", "3", "-load", "12", "-size", "200", "-duration", "0.06",
		"-sample-every", "8", "-checkpoint-every", "12", "-checkpoint-dir", "@ckpt", "-drift-ppm", "21", "-soak-drift-at", "0.03"}
	soakArgs = append(slices.Clone(soakBase), "-stream-out", "@soak.jsonl")
)

// syncArgs records a 0 ppm workload under the named sync strategy.
func syncArgs(strategy string) []string {
	return []string{"-sync=" + strategy, "-workload", "cbr", "-load", "6", "-duration", "0.01", "-trace-out", "@" + strategy + ".jsonl"}
}

// TestGateDrills drives megamimo-sim and megamimo-trace end to end through
// the paper's gates: the π/18 phase budget and the ±20 ppm oscillator
// mandate (§11.1b), lead handover (§9), strict telemetry exports and the
// soak checkpoint's identity and integrity checks. Each row runs
// megamimo-sim with sim, if any, then megamimo-trace with trace; exit and
// want judge the trace tool's run, or the sim's when trace is nil. An "@"
// argument names a file in the shared temp dir, and rows with the same
// sim arguments share one run.
func TestGateDrills(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	sim := path("megamimo-sim")
	if out, err := exec.Command("go", "build", "-o", sim, "megamimo/cmd/megamimo-sim").CombinedOutput(); err != nil {
		t.Fatalf("build megamimo-sim: %v\n%s", err, out)
	}
	expand := func(args []string) []string {
		out := slices.Clone(args)
		for i, a := range out {
			if rest, ok := strings.CutPrefix(a, "@"); ok {
				out[i] = path(rest)
			}
		}
		return out
	}
	run := func(t *testing.T, cmd *exec.Cmd) (string, int) {
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", cmd.Args, err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	type result struct {
		out  string
		code int
	}
	runs := map[string]result{}
	runSim := func(t *testing.T, args []string) (string, int) {
		key := strings.Join(args, " ")
		if r, ok := runs[key]; !ok {
			if err := os.MkdirAll(path("ckpt"), 0o755); err != nil { // the soak's -checkpoint-dir
				t.Fatal(err)
			}
			r.out, r.code = run(t, exec.Command(sim, expand(args)...))
			runs[key] = r
		}
		return runs[key].out, runs[key].code
	}
	read := func(t *testing.T, name string) string {
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	soak := func(t *testing.T) {
		if out, code := runSim(t, soakArgs); code != 0 {
			t.Fatalf("soak: exit %d\n%s", code, out)
		}
	}

	for _, row := range []struct {
		name  string
		setup func(t *testing.T)
		sim   []string
		trace []string
		exit  int
		want  []string
		check func(t *testing.T, out string)
	}{
		{name: "clean/summary", sim: cleanArgs, trace: []string{"summary", "@clean.jsonl"}, want: []string{"events by kind:", "joint-tx"}},
		{name: "clean/phases", sim: cleanArgs, trace: []string{"phases", "@clean.jsonl"}, want: []string{"per slave AP"}},
		{name: "clean/anomalies", sim: cleanArgs, trace: []string{"anomalies", "@clean-stream.jsonl"}, want: []string{"no anomalies"}},
		{name: "clean/chrome", sim: chromeArgs, check: func(t *testing.T, _ string) { checkChrome(t, read(t, "clean.chrome.json")) }},
		{name: "clean/prometheus", sim: cleanArgs, check: func(t *testing.T, _ string) {
			prom := read(t, "clean.prom")
			if err := checkPrometheus(prom, "core_joint_tx_total", "trace_sink_dropped_total"); err != nil {
				t.Error(err)
			}
			if !strings.Contains(prom, "\ntrace_sink_dropped_total 0\n") {
				t.Error("the clean run's stream sink dropped lines")
			}
		}},
		{name: "clean/series", sim: cleanArgs, check: func(t *testing.T, _ string) {
			lines := strings.Split(strings.TrimSpace(read(t, "series.jsonl")), "\n")
			if len(lines) < 2 {
				t.Errorf("series holds %d lines, want at least 2", len(lines))
			}
			for i, ln := range lines {
				if !json.Valid([]byte(ln)) {
					t.Errorf("series line %d is not JSON: %q", i+1, ln)
				}
			}
		}},
		{name: "drift/anomalies", sim: driftArgs, trace: []string{"anomalies", "@drift.jsonl"}, exit: 1, want: []string{"cfo-mandate"}},
		{name: "drift/follow", sim: driftArgs, trace: []string{"-idle-exit", "100ms", "-poll", "10ms", "follow", "@drift-stream.jsonl"},
			exit: 1, want: []string{"VIOLATION", "cfo-mandate"}},
		{name: "chaos-mixed/recovered-tail", sim: []string{"-chaos", "mixed", "-duration", "0.01", "-trace-out", "@chaos.jsonl"},
			trace: []string{"anomalies", "@chaos.jsonl"}, want: []string{"no anomalies"}},
		{name: "chaos-lead-crash/failover", sim: []string{"-chaos", "lead-crash", "-duration", "0.01"}, check: func(t *testing.T, out string) {
			if f, r := match(t, out, `failovers=(\d+)`), match(t, out, `delivery rate: ([0-9.]+)`); f < 1 || r < 0.5 {
				t.Errorf("lead crash: failovers=%v delivery=%v, want ≥1 and ≥0.5", f, r)
			}
		}},
		{name: "sync-header/clean", sim: syncArgs("header"), trace: []string{"anomalies", "@header.jsonl"}, want: []string{"no anomalies"},
			check: func(t *testing.T, _ string) { syncHeader(t, read(t, "header.jsonl"), "header") }},
		{name: "sync-airsync/clean", sim: syncArgs("airsync"), trace: []string{"anomalies", "@airsync.jsonl"}, want: []string{"no anomalies"},
			check: func(t *testing.T, _ string) { syncHeader(t, read(t, "airsync.jsonl"), "airsync") }},
		{name: "soak/bisect", sim: soakArgs, trace: []string{"bisect", "@ckpt", "@soak.jsonl"},
			exit: 1, want: []string{": clean (", "first violation localized to window"}},
		{name: "soak/resume-other-seed", setup: soak, sim: append(slices.Clone(soakBase), "-seed", "99", "-resume", "@ckpt/soak-00000012.ckpt"),
			exit: 1, want: []string{"config mismatch", "seed"}},
		{name: "soak/resume-byte-flipped", setup: func(t *testing.T) {
			soak(t)
			b := []byte(read(t, "ckpt/soak-00000012.ckpt"))
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path("flipped.ckpt"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, sim: append(slices.Clone(soakBase), "-resume", "@flipped.ckpt"), exit: 1, want: []string{"corrupted payload", "byte offset"}},
		{name: "missing-trace", trace: []string{"anomalies", "@missing.jsonl"}, exit: 2, want: []string{"missing.jsonl"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.setup != nil {
				row.setup(t)
			}
			var out string
			code := 0
			if row.sim != nil {
				out, code = runSim(t, row.sim)
			}
			if row.trace != nil {
				if code != 0 {
					t.Fatalf("megamimo-sim: exit %d\n%s", code, out)
				}
				cmd := exec.Command(os.Args[0])
				cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(expand(row.trace), "\n"))
				out, code = run(t, cmd)
			}
			if code != row.exit || strings.Contains(out, "panic") {
				t.Errorf("exit %d, want %d without a panic; output:\n%s", code, row.exit, out)
			}
			for _, w := range row.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if row.check != nil {
				row.check(t, out)
			}
		})
	}
}

// match returns the number the first submatch of re captures in out.
func match(t *testing.T, out, re string) float64 {
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output lacks %s:\n%s", re, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// syncHeader checks that the trace header names the sync strategy.
func syncHeader(t *testing.T, trace, strategy string) {
	header, _, _ := strings.Cut(trace, "\n")
	if want := fmt.Sprintf(`"sync":%q`, strategy); !strings.Contains(header, want) {
		t.Errorf("trace header lacks %s: %s", want, header)
	}
}

// checkChrome checks that a Chrome export is one JSON object stamped with
// the megamimo-trace schema whose every non-metadata event is inside the
// closed kind vocabulary.
func checkChrome(t *testing.T, export string) {
	var doc struct {
		OtherData   struct{ Schema string }
		TraceEvents []struct{ Name, Ph string }
	}
	if err := json.Unmarshal([]byte(export), &doc); err != nil || doc.OtherData.Schema != "megamimo-trace" {
		t.Fatalf("chrome export: schema %q, error %v", doc.OtherData.Schema, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome export holds no events")
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" && !slices.Contains(core.Kinds(), e.Name) {
			t.Errorf("event kind %q outside the vocabulary %v", e.Name, core.Kinds())
		}
	}
}

var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)

// checkPrometheus parses a Prometheus text exposition strictly: each sample
// follows its own # TYPE line, values are finite, only histogram buckets
// carry a label (le), buckets are cumulative and end at _count, and the
// required instruments are present.
func checkPrometheus(text string, required ...string) error {
	types := map[string]string{}
	var owner string
	var bucket float64
	for i, ln := range strings.Split(strings.TrimSpace(text), "\n") {
		bad := func(why string) error { return fmt.Errorf("line %d: %s: %q", i+1, why, ln) }
		if rest, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if types[name] != "" || !slices.Contains([]string{"counter", "gauge", "histogram"}, kind) {
				return bad("bad or duplicate TYPE")
			}
			types[name], owner, bucket = kind, name, 0
			continue
		}
		m := promSample.FindStringSubmatch(ln)
		if m == nil {
			return bad("unparseable sample")
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return bad("non-finite value")
		}
		allowed := []string{""}
		if types[owner] == "histogram" {
			allowed = []string{"_bucket", "_sum", "_count"}
		}
		suffix, ok := strings.CutPrefix(m[1], owner)
		switch {
		case !ok || !slices.Contains(allowed, suffix):
			return bad("sample does not follow its TYPE line")
		case (m[2] != "") != (suffix == "_bucket") || (m[2] != "" && !strings.HasPrefix(m[2], `{le="`)):
			return bad("only histogram buckets carry a label, le")
		case suffix == "_bucket" && v < bucket:
			return bad("histogram buckets not cumulative")
		case suffix == "_count" && v != bucket:
			return bad("histogram _count differs from its +Inf bucket")
		}
		if suffix == "_bucket" {
			bucket = v
		}
	}
	for _, name := range required {
		if types[name] == "" {
			return fmt.Errorf("no %s instrument", name)
		}
	}
	return nil
}
