package lint

import (
	"go/ast"
	"strings"
)

// panicPolicyPkgs are the packages whose exported API must return errors
// instead of panicking: they sit on user-reachable input paths (rate
// selection from measured SNRs, modulation of frame bits, statistics over
// experiment output, the PHY encode/decode pipeline, the fault-injection
// schedule that chaos experiments replay, the sync scheme the closed loop
// calls on every joint transmission, and the streaming
// telemetry surfaces — sinks and monitors run inside the tracer's record
// path on every event, so a panic there kills the simulation mid-run).
var panicPolicyPkgs = map[string]bool{
	"megamimo/internal/rate":       true,
	"megamimo/internal/modulation": true,
	"megamimo/internal/stats":      true,
	"megamimo/internal/phy":        true,
	"megamimo/internal/fault":      true,
	"megamimo/internal/sync":       true,
	"megamimo/internal/tracefmt":   true,
	"megamimo/internal/metrics":    true,
	"megamimo/internal/obs":        true,
	"megamimo/internal/checkpoint": true,
}

// PanicPolicyAnalyzer flags panic calls lexically inside exported functions
// or methods of the policy packages. Unexported helpers may still panic on
// internal invariants; the exported surface must not. Deliberate invariant
// panics in exported bodies carry a //lint:ignore with the justification.
var PanicPolicyAnalyzer = &Analyzer{
	Name: "panic-policy",
	Doc:  "panic in exported API of internal/{rate,modulation,stats,phy,fault,sync,tracefmt,metrics,obs}",
	Run:  runPanicPolicy,
}

func runPanicPolicy(p *Pass) {
	path := p.Pkg.Path
	if !panicPolicyPkgs[path] && !strings.HasSuffix(path, "testdata/src/panicpolicy") &&
		!strings.HasSuffix(path, "testdata/src/syncpanic") &&
		!strings.HasSuffix(path, "testdata/src/obspanic") {
		return
	}
	info := p.Pkg.Info
	eachFile(p, func(f *ast.File, isTest bool) {
		if isTest {
			return
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok && isBuiltin(info, call, "panic") {
					p.Reportf(call.Pos(),
						"exported %s panics; return an error (or validate via a constructor) so callers can recover",
						fd.Name.Name)
				}
				return true
			})
		}
	})
}
