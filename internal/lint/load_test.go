package lint

import (
	"strings"
	"testing"
)

// TestLoadDirMultiFilePackage checks the loader's whole-package view: a
// type declared in one file resolves in its siblings, so the units
// analyzer reports the float64 strip in each of the two files.
func TestLoadDirMultiFilePackage(t *testing.T) {
	pkgs := loadTestdata(t, "multifile")
	base := pkgs[0]
	nonTest := 0
	for _, f := range base.Files {
		if !base.IsTestFile(f) {
			nonTest++
		}
	}
	if nonTest != 2 {
		t.Fatalf("base package has %d non-test files, want 2", nonTest)
	}
	diags := Run(pkgs, []*Analyzer{UnitsAnalyzer})
	files := map[string]bool{}
	for _, d := range diags {
		if !strings.Contains(d.Message, "strips units.Radians") {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		switch {
		case strings.HasSuffix(d.File, "osc.go"):
			files["osc.go"] = true
		case strings.HasSuffix(d.File, "gain.go"):
			files["gain.go"] = true
		default:
			t.Errorf("diagnostic in unexpected file: %s", d)
		}
	}
	if !files["osc.go"] || !files["gain.go"] {
		t.Errorf("expected one strip diagnostic per file, got %v (diags: %v)", files, diags)
	}
}

// TestLoadDirExternalTestPackage checks that a package foo_test file comes
// back as its own Package whose import of the base package resolved.
func TestLoadDirExternalTestPackage(t *testing.T) {
	pkgs := loadTestdata(t, "multifile")
	if len(pkgs) != 2 {
		t.Fatalf("LoadDir returned %d packages, want base + external test", len(pkgs))
	}
	xtest := pkgs[1]
	if !strings.HasSuffix(xtest.Path, "_test") {
		t.Fatalf("second package path %q does not end in _test", xtest.Path)
	}
	if xtest.Types == nil || len(xtest.Files) == 0 {
		t.Fatal("external test package did not type-check")
	}
	// The import of the base package must have resolved from source.
	found := false
	for _, imp := range xtest.Types.Imports() {
		if imp.Path() == "megamimo/internal/lint/testdata/src/multifile" {
			found = true
		}
	}
	if !found {
		t.Errorf("external test package imports %v; base package missing", xtest.Types.Imports())
	}
}

// TestLoadDirHonorsBuildConstraints loads a package whose kernel is
// declared once in a _amd64.go file and once in a //go:build !amd64 file:
// only one of them may be type-checked, or the two declarations clash.
func TestLoadDirHonorsBuildConstraints(t *testing.T) {
	pkgs := loadTestdata(t, "buildconstraint")
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 2 {
		t.Fatalf("package has %d files, want 2: the kernel for this GOARCH and its caller", n)
	}
}

// TestLoadDirCrossPackageImport checks source-based resolution of
// module-local imports: the violation is only detectable if the sibling
// fixture package's units.Radians signature type-checked.
func TestLoadDirCrossPackageImport(t *testing.T) {
	pkgs := loadTestdata(t, "multipkg")
	diags := Run(pkgs, []*Analyzer{UnitsAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "strips units.Radians") {
		t.Errorf("diagnostic = %s, want a units.Radians strip through the import", diags[0])
	}
}

// TestScopedDirectiveKeepsOtherAnalyzers: //lint:ignore units must not
// silence float-eq on the same line.
func TestScopedDirectiveKeepsOtherAnalyzers(t *testing.T) {
	pkgs := loadTestdata(t, "directivescope")
	diags := Run(pkgs, []*Analyzer{UnitsAnalyzer, FloatEqAnalyzer})
	var haveFloatEq, haveDirective, haveSurvivingStrip bool
	for _, d := range diags {
		switch d.Analyzer {
		case "float-eq":
			haveFloatEq = true
		case "directive":
			haveDirective = true
			if !strings.Contains(d.Message, "needs a reason") {
				t.Errorf("directive message = %q", d.Message)
			}
		case "units":
			haveSurvivingStrip = true
		}
	}
	if !haveFloatEq {
		t.Error("units-scoped directive silenced the float-eq finding on its line")
	}
	if !haveDirective {
		t.Error("reasonless scoped directive (//lint:ignore units) was not reported")
	}
	if !haveSurvivingStrip {
		t.Error("reasonless scoped directive suppressed the units finding under it")
	}
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
}
