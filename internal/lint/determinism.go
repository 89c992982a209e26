package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repository's replayability contract:
// every random draw in the signal path goes through internal/rng, no code
// consults wall-clock time, and no map iteration order leaks into numeric
// results. A phase error caused by an unseeded generator is experimentally
// indistinguishable from oscillator drift, so these are treated as
// correctness bugs, not style.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "nondeterministic inputs (global math/rand, time.Now, map-order-dependent accumulation) in the signal path",
	Run:  runDeterminism,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. rand.New / rand.NewSource are excluded: they build
// explicitly seeded generators.
var globalRandFuncs = map[string]bool{
	"Float64": true, "Float32": true, "ExpFloat64": true, "NormFloat64": true,
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// rngPkg is the one package allowed to touch math/rand directly.
const rngPkg = "megamimo/internal/rng"

// strictMapPkgs lists packages whose outputs must be byte-identical under
// map-iteration reshuffling with no reduction-shape analysis: workload
// reports, metrics exports, the phase-sync loop, and the streaming
// telemetry pipeline (trace serialization, the online monitor, the
// observability endpoints) are diffed verbatim across worker counts in
// CI, so every map range there is suspect unless it is the
// collect-keys-then-sort idiom.
var strictMapPkgs = map[string]bool{
	"megamimo/internal/traffic":                     true,
	"megamimo/internal/metrics":                     true,
	"megamimo/internal/sync":                        true,
	"megamimo/internal/tracefmt":                    true,
	"megamimo/internal/obs":                         true,
	"megamimo/internal/lint/testdata/src/strictmap": true,
	"megamimo/internal/lint/testdata/src/syncmap":   true,
	"megamimo/internal/lint/testdata/src/obsmap":    true,
}

func runDeterminism(p *Pass) {
	info := p.Pkg.Info
	path := p.Pkg.Path
	inRNG := path == rngPkg
	strict := strictMapPkgs[path]
	eachFile(p, func(f *ast.File, isTest bool) {
		if !isTest && !inRNG {
			for _, imp := range f.Imports {
				switch strings.Trim(imp.Path.Value, `"`) {
				case "math/rand", "math/rand/v2":
					p.Reportf(imp.Pos(),
						"math/rand imported outside internal/rng; route randomness through internal/rng so runs are replayable")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(p, info, n, path, isTest)
			case *ast.BlockStmt:
				if !isTest {
					checkStmtMapRanges(p, info, n.List, strict)
				}
			case *ast.CaseClause:
				if !isTest {
					checkStmtMapRanges(p, info, n.Body, strict)
				}
			case *ast.CommClause:
				if !isTest {
					checkStmtMapRanges(p, info, n.Body, strict)
				}
			}
			return true
		})
	})
}

func checkDeterminismCall(p *Pass, info *types.Info, call *ast.CallExpr, path string, isTest bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		// Package-level draws from the shared source are flagged everywhere,
		// tests included: they make even seeded test runs order-dependent.
		if fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"rand.%s draws from the process-global source; use internal/rng (or an explicit rand.New(rand.NewSource(seed)) in tests)",
				fn.Name())
		}
	case "time":
		if fn.Name() == "Now" && !isTest && strings.HasPrefix(path, "megamimo/internal/") &&
			path != "megamimo/internal/lint" {
			p.Reportf(call.Pos(),
				"time.Now in the signal path makes runs unreproducible; thread simulated time through explicitly")
		}
	}
}

// checkStmtMapRanges dispatches map-range checking: strict packages get
// the all-or-nothing rule, the rest the reduction-shape analysis.
func checkStmtMapRanges(p *Pass, info *types.Info, stmts []ast.Stmt, strict bool) {
	if strict {
		checkMapRangesStrict(p, info, stmts)
	} else {
		checkMapRanges(p, info, stmts)
	}
}

// checkMapRangesStrict flags every `for … := range m` over a map in a
// strict-determinism package, with one carve-out: a body that is exactly
// one `keys = append(keys, …)` statement into a slice declared outside
// the loop, where a later statement in the same block sorts that slice —
// the canonical collect-keys-then-sort idiom.
func checkMapRangesStrict(p *Pass, info *types.Info, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			continue
		}
		if len(rng.Body.List) == 1 {
			if as, ok := rng.Body.List[0].(*ast.AssignStmt); ok {
				kind, _, obj := mapOrderSensitiveAssign(info, rng, as)
				if kind == "an append" && sortedAfter(info, stmts[i+1:], obj) {
					continue
				}
			}
		}
		p.Reportf(rng.Pos(),
			"map iteration in a strict-determinism package (%s); collect keys into a slice, sort, then index the map",
			p.Pkg.Path)
	}
}

// checkMapRanges flags `for … := range m` statements over maps whose body
// performs an order-sensitive reduction: float/complex compound assignment
// (float addition does not commute in rounding) or appending to a slice
// declared outside the loop (element order then depends on map iteration
// order). The collect-then-sort idiom is recognized: an append target that
// a later statement in the same block passes to a sort.* call is clean.
func checkMapRanges(p *Pass, info *types.Info, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			continue
		}
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			reduction, target, obj := mapOrderSensitiveAssign(info, rng, as)
			if reduction == "" {
				return true
			}
			if reduction == "an append" && sortedAfter(info, stmts[i+1:], obj) {
				return false
			}
			p.Reportf(as.Pos(),
				"map iteration order feeds %s of %q; iterate sorted keys so results are bit-reproducible",
				reduction, target)
			return false
		})
	}
}

// sortedAfter reports whether a later statement sorts the object via the
// sort package, making the collection order irrelevant.
func sortedAfter(info *types.Info, rest []ast.Stmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, s := range rest {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
			continue
		}
		if rootObject(info, call.Args[0]) == obj {
			return true
		}
	}
	return false
}

// mapOrderSensitiveAssign classifies an assignment inside a map-range body.
// It returns a description of the order-sensitive reduction ("" if none),
// the printed target expression, and the target's root object.
func mapOrderSensitiveAssign(info *types.Info, rng *ast.RangeStmt, as *ast.AssignStmt) (string, string, types.Object) {
	outside := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End())
	}
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
		lhs := as.Lhs[0]
		obj := rootObject(info, lhs)
		if isFloatOrComplex(info.TypeOf(lhs)) && outside(obj) {
			return "a float accumulation", types.ExprString(lhs), obj
		}
	case "=":
		// acc = append(acc, …) with acc declared outside the loop.
		for i, r := range as.Rhs {
			call, ok := ast.Unparen(r).(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 || i >= len(as.Lhs) {
				continue
			}
			lhs := as.Lhs[i]
			obj := rootObject(info, lhs)
			if types.ExprString(lhs) == types.ExprString(call.Args[0]) && outside(obj) {
				return "an append", types.ExprString(lhs), obj
			}
		}
	}
	return "", "", nil
}

func isFloatOrComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
