package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// aliasRule describes the aliasing contract of one dst-writing DSP kernel.
// Element-wise kernels (strict == false) tolerate dst fully aliasing a
// source at the same offset but corrupt themselves under a shifted overlap;
// strict kernels (convolution-style, which read sources after writing dst)
// require dst to be disjoint from every source.
type aliasRule struct {
	dst    []int // destination parameter indices
	src    []int // source parameter indices
	strict bool
}

var elementwise3 = aliasRule{dst: []int{0}, src: []int{1, 2}}
var elementwise2 = aliasRule{dst: []int{0}, src: []int{1}}

// aliasRules maps the FullName of each checked function to its contract.
var aliasRules = map[string]aliasRule{
	"megamimo/internal/cmplxs.Add":    elementwise3,
	"megamimo/internal/cmplxs.Scale":  elementwise2,
	"megamimo/internal/cmplxs.Rotate": elementwise2,

	"(*megamimo/internal/dsp.FFTPlan).Forward":       elementwise2,
	"(*megamimo/internal/dsp.FFTPlan).Inverse":       elementwise2,
	"(*megamimo/internal/dsp.FFTPlan).ForwardScaled": elementwise2,
	"(*megamimo/internal/dsp.FFTPlan).InverseScaled": elementwise2,

	"megamimo/internal/dsp.ConvolveRotateAdd": {dst: []int{0}, src: []int{1, 2}, strict: true},
}

// AliasingAnalyzer flags in-place cmplxs/dsp kernel calls whose destination
// slice overlaps a source slice in a way the kernel's contract forbids.
var AliasingAnalyzer = &Analyzer{
	Name: "aliasing",
	Doc:  "in-place DSP kernels called with overlapping src/dst slices",
	Run:  runAliasing,
}

func runAliasing(p *Pass) {
	info := p.Pkg.Info
	eachFile(p, func(f *ast.File, isTest bool) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			rule, ok := aliasRules[fn.FullName()]
			if !ok {
				return true
			}
			// Method calls: receiver is not in call.Args, so parameter
			// indices map directly for both funcs and methods here.
			for _, di := range rule.dst {
				for _, si := range rule.src {
					if di >= len(call.Args) || si >= len(call.Args) {
						continue
					}
					checkAliasPair(p, info, call, fn.Name(), rule, call.Args[di], call.Args[si])
				}
			}
			return true
		})
	})
}

// overlap verdicts.
type aliasVerdict int

const (
	aliasDistinct  aliasVerdict = iota // provably no overlap, or unrelated bases
	aliasIdentical                     // the same slice expression
	aliasSameStart                     // same base, provably equal low bound
	aliasOverlap                       // same base, shifted or unprovable bounds
)

func checkAliasPair(p *Pass, info *types.Info, call *ast.CallExpr, fname string, rule aliasRule, dst, src ast.Expr) {
	v := classifyAlias(info, dst, src)
	switch {
	case rule.strict && v != aliasDistinct:
		p.Reportf(call.Pos(),
			"%s requires dst to be disjoint from its sources, but %s and %s share backing storage",
			fname, types.ExprString(dst), types.ExprString(src))
	case !rule.strict && v == aliasOverlap:
		p.Reportf(call.Pos(),
			"%s called with dst %s overlapping source %s at a shifted offset; in-place use requires identical (or disjoint) slices",
			fname, types.ExprString(dst), types.ExprString(src))
	}
}

// classifyAlias decides how two slice-typed argument expressions relate.
// The analysis is syntactic plus constant folding: it only claims overlap
// when both expressions are rooted in the same variable.
func classifyAlias(info *types.Info, dst, src ast.Expr) aliasVerdict {
	dst, src = ast.Unparen(dst), ast.Unparen(src)
	if types.ExprString(dst) == types.ExprString(src) {
		if rootObject(info, dst) == nil {
			return aliasDistinct
		}
		return aliasIdentical
	}
	dBase, dLo, dHi := sliceBounds(info, dst)
	sBase, sLo, sHi := sliceBounds(info, src)
	dRoot, sRoot := rootObject(info, dBase), rootObject(info, sBase)
	if dRoot == nil || sRoot == nil || dRoot != sRoot ||
		types.ExprString(dBase) != types.ExprString(sBase) {
		return aliasDistinct
	}
	// Same base array/slice. Compare constant bounds where available.
	if dLo.known && sLo.known {
		if dLo.v == sLo.v {
			return aliasSameStart
		}
		// Disjoint iff one window provably ends before the other begins.
		if dHi.known && dHi.v <= sLo.v || sHi.known && sHi.v <= dLo.v {
			return aliasDistinct
		}
	}
	return aliasOverlap
}

// bound is a possibly-unknown constant slice bound.
type bound struct {
	v     int64
	known bool
}

// sliceBounds splits an argument into its base expression and constant
// [low, high) bounds. A bare expression is its own base with low 0 and
// unknown high; non-constant bounds are unknown.
func sliceBounds(info *types.Info, e ast.Expr) (base ast.Expr, lo, hi bound) {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok {
		return e, bound{v: 0, known: true}, bound{}
	}
	base = se.X
	lo = constBound(info, se.Low, bound{v: 0, known: true})
	hi = constBound(info, se.High, bound{})
	return base, lo, hi
}

func constBound(info *types.Info, e ast.Expr, dflt bound) bound {
	if e == nil {
		return dflt
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return bound{}
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return bound{}
	}
	return bound{v: v, known: true}
}
