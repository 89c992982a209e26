package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FaultPathAnalyzer guards the fault-injection machinery with two checks the
// type system cannot hold:
//
//  1. Every switch over fault.Kind must name every Kind constant explicitly.
//     A fault schedule is replayed byte-for-byte across worker counts and CI
//     runs; a Kind silently swallowed by a default clause (or by falling out
//     of the switch) turns an injected fault into a no-op and the determinism
//     gate into a false positive. Adding a Kind must be a compile-visible
//     event at every dispatch site, so a default clause does not count as
//     coverage.
//  2. Fault-handling code must not panic. The fault package runs inside the
//     closed loop precisely when the system is already degraded; its job is
//     to keep the experiment deterministic while things break, so it reports
//     errors instead of tearing the process down.
var FaultPathAnalyzer = &Analyzer{
	Name: "faultpath",
	Doc:  "non-exhaustive switches over fault.Kind, and panics inside the fault package",
	Run:  runFaultPath,
}

// faultDefPkgs are the packages whose Kind type the analyzer recognizes:
// the real fault package plus the golden-test fixture.
var faultDefPkgs = map[string]bool{
	"megamimo/internal/fault":                       true,
	"megamimo/internal/lint/testdata/src/faultpath": true,
}

// faultPanicBanPkgs are the packages rule 2's panic ban covers beyond the
// Kind-defining ones: the sync scheme's prediction runs exactly when the
// loop is degraded (header lost, lead failed over), so it shares the fault
// package's degrade-gracefully contract.
var faultPanicBanPkgs = map[string]bool{
	"megamimo/internal/sync": true,
	// The checkpoint loader parses untrusted bytes (truncated, bit-rotted
	// or foreign files) and must always fail with an offset-bearing
	// error, never a panic.
	"megamimo/internal/checkpoint": true,
}

func runFaultPath(p *Pass) {
	info := p.Pkg.Info
	banPanics := faultDefPkgs[p.Pkg.Path] || faultPanicBanPkgs[p.Pkg.Path] ||
		strings.HasSuffix(p.Pkg.Path, "testdata/src/faultpath")
	eachFile(p, func(f *ast.File, isTest bool) {
		// Test files probe invalid kinds and may panic in helpers on
		// purpose; the contract covers production dispatch sites.
		if isTest {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkFaultKindSwitch(p, info, n)
			case *ast.CallExpr:
				if banPanics && isBuiltin(info, n, "panic") {
					p.Reportf(n.Pos(),
						"panic on the fault-handling path; fault code must degrade gracefully — return an error instead")
				}
			}
			return true
		})
	})
}

// checkFaultKindSwitch requires a switch whose tag is a fault.Kind to carry
// a case for every package-scope Kind constant.
func checkFaultKindSwitch(p *Pass, info *types.Info, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named := faultKindType(info.TypeOf(sw.Tag))
	if named == nil {
		return
	}
	// Enumerate the closed vocabulary: every package-scope constant of the
	// Kind type, in declaration-independent sorted order.
	scope := named.Obj().Pkg().Scope()
	all := make(map[string]bool)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			all[name] = true
		}
	}
	if len(all) == 0 {
		return
	}
	// Collect the constants the cases name. A default clause deliberately
	// does not substitute: new kinds must be dispatched explicitly.
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var ident *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				ident = e
			case *ast.SelectorExpr:
				ident = e.Sel
			default:
				continue
			}
			if c, ok := info.Uses[ident].(*types.Const); ok {
				delete(all, c.Name())
			}
		}
	}
	if len(all) == 0 {
		return
	}
	missing := make([]string, 0, len(all))
	for name := range all {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(),
		"switch over %s.Kind is missing cases %s; fault kinds form a closed set and a default clause does not count — every kind must be dispatched explicitly",
		named.Obj().Pkg().Name(), strings.Join(missing, ", "))
}

// faultKindType returns the named Kind type from a recognized fault package,
// or nil when t is anything else.
func faultKindType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Kind" || obj.Pkg() == nil || !faultDefPkgs[obj.Pkg().Path()] {
		return nil
	}
	return named
}
