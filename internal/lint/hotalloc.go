package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer flags fresh complex-sample buffer allocations inside
// loops in the hot signal-path packages. A make([]complex128, …) executed
// per symbol or per frame is how the per-transmission allocation count
// reached six figures before the scratch-arena refactor; new code must
// hoist the buffer out of the loop, reuse an owned scratch field, or
// borrow it from dsp's recycler (dsp.Borrow, dsp.Release). Deliberate
// allocations (results retained by the caller, grow-only reallocation)
// are suppressed with a //lint:ignore hotalloc directive explaining why.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "per-iteration make([]complex128, …) in hot signal-path packages (phy, ofdm, dsp, air, core)",
	Run:  runHotAlloc,
}

// hotAllocPkgs are the packages on the per-sample processing path, where
// allocation rate is a measured performance budget.
var hotAllocPkgs = map[string]bool{
	"megamimo/internal/phy":  true,
	"megamimo/internal/ofdm": true,
	"megamimo/internal/dsp":  true,
	"megamimo/internal/air":  true,
	"megamimo/internal/core": true,
	// The analyzer's own golden-test fixture package.
	"megamimo/internal/lint/testdata/src/hotalloc": true,
}

func runHotAlloc(p *Pass) {
	if !hotAllocPkgs[p.Pkg.Path] {
		return
	}
	info := p.Pkg.Info
	// Nested loops visit the same make twice; report each call site once.
	seen := map[token.Pos]bool{}
	eachFile(p, func(f *ast.File, isTest bool) {
		if isTest {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "make") || seen[call.Pos()] {
					return true
				}
				t := info.TypeOf(call)
				if !isComplexSlice(t) {
					return true
				}
				seen[call.Pos()] = true
				p.Reportf(call.Pos(),
					"make(%s, …) inside a loop allocates every iteration on the hot signal path; hoist the buffer, reuse an owned scratch field, or borrow it with dsp.Borrow and hand it back with dsp.Release",
					types.TypeString(t, types.RelativeTo(p.Pkg.Types)))
				return true
			})
			return true
		})
	})
}

// isComplexSlice reports whether t is a slice of complex samples (directly
// or through a named type).
func isComplexSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsComplex != 0
}
