package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// loadTestdata type-checks one testdata package under its in-module import
// path (so path-scoped analyzers see the right prefix).
func loadTestdata(t *testing.T, dirName string) []*Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", dirName)
	pkgs, err := l.LoadDir(dir, "megamimo/internal/lint/testdata/src/"+dirName)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantsIn collects `// want "substring"` expectations per file:line from
// the testdata sources.
func wantsIn(t *testing.T, pkgs []*Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	seen := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					key := fmt.Sprintf("%s:%d", name, i+1)
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// runGolden checks one analyzer against its testdata package: every want
// must be matched by a diagnostic on its line, every diagnostic must have
// a want, and suppressed lines (which carry no want) must stay silent. It
// returns the wants.
func runGolden(t *testing.T, a *Analyzer, dirName string) map[string][]string {
	pkgs := loadTestdata(t, dirName)
	wants := wantsIn(t, pkgs)
	diags := Run(pkgs, []*Analyzer{a})

	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ws := wants[key]
		ok := false
		for i, w := range ws {
			if i >= matched[key] && strings.Contains(d.Message, w) {
				matched[key]++
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		if matched[key] != len(ws) {
			t.Errorf("%s: matched %d of %d expected diagnostics %q", key, matched[key], len(ws), ws)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
	return wants
}

func TestAliasingGolden(t *testing.T)    { runGolden(t, AliasingAnalyzer, "aliasing") }
func TestDeterminismGolden(t *testing.T) { runGolden(t, DeterminismAnalyzer, "determinism") }
func TestFloatEqGolden(t *testing.T)     { runGolden(t, FloatEqAnalyzer, "floateq") }
func TestStrictMapGolden(t *testing.T)   { runGolden(t, DeterminismAnalyzer, "strictmap") }
func TestFaultPathGolden(t *testing.T)   { runGolden(t, FaultPathAnalyzer, "faultpath") }
func TestHotAllocGolden(t *testing.T)    { runGolden(t, HotAllocAnalyzer, "hotalloc") }
func TestPanicPolicyGolden(t *testing.T) { runGolden(t, PanicPolicyAnalyzer, "panicpolicy") }
func TestSyncPanicGolden(t *testing.T)   { runGolden(t, PanicPolicyAnalyzer, "syncpanic") }
func TestSyncMapGolden(t *testing.T)     { runGolden(t, DeterminismAnalyzer, "syncmap") }
func TestObsMapGolden(t *testing.T)      { runGolden(t, DeterminismAnalyzer, "obsmap") }
func TestObsPanicGolden(t *testing.T)    { runGolden(t, PanicPolicyAnalyzer, "obspanic") }
func TestUncheckedErrorGolden(t *testing.T) {
	runGolden(t, UncheckedErrorAnalyzer, "uncheckederr")
}
func TestTraceFieldsGolden(t *testing.T) { runGolden(t, TraceFieldsAnalyzer, "tracefields") }

// TestUnitsGolden also requires the fixture to keep asserting all three
// rules: a want deleted along with its rule would otherwise pass silently.
func TestUnitsGolden(t *testing.T) {
	wants := fmt.Sprint(runGolden(t, UnitsAnalyzer, "units"))
	for _, rule := range []string{"reinterprets units", "strips units", "declared as bare"} {
		if !strings.Contains(wants, rule) {
			t.Errorf("units fixture lost coverage of %q", rule)
		}
	}
}

func TestTraceFieldsSchemaGolden(t *testing.T) {
	runGolden(t, TraceFieldsAnalyzer, "tracefieldsv2")
}

// TestMalformedDirective checks that a reasonless //lint:ignore is reported
// and does not suppress the finding beneath it.
func TestMalformedDirective(t *testing.T) {
	pkgs := loadTestdata(t, "directive")
	diags := Run(pkgs, []*Analyzer{FloatEqAnalyzer})
	var haveDirective, haveFloatEq bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			haveDirective = true
			if !strings.Contains(d.Message, "needs a reason") {
				t.Errorf("directive message = %q", d.Message)
			}
		case "float-eq":
			haveFloatEq = true
		}
	}
	if !haveDirective {
		t.Error("reasonless //lint:ignore was not reported")
	}
	if !haveFloatEq {
		t.Error("reasonless //lint:ignore suppressed the diagnostic under it")
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

// TestRepoIsClean is the self-gate: the full analyzer suite over the whole
// module must come back empty, mirroring `megamimo-lint ./...` exiting 0.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestAllAnalyzers pins the suite TestRepoIsClean and megamimo-lint run,
// so an analyzer dropped from All() fails here instead of thinning it.
func TestAllAnalyzers(t *testing.T) {
	var got []string
	for _, a := range All() {
		got = append(got, a.Name)
	}
	want := []string{"aliasing", "determinism", "faultpath", "float-eq", "hotalloc",
		"panic-policy", "tracefields", "unchecked-error", "units"}
	if !slices.Equal(got, want) {
		t.Errorf("All() = %v, want %v", got, want)
	}
}

// TestAnalyzerNamesAreUnique guards the scoped-suppression namespace.
func TestAnalyzerNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}
