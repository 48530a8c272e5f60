package lint

import (
	"go/ast"
	"go/types"

	"geostat/internal/lint/analysis"
)

// enginePath is the one package allowed to own goroutines and raw RNG
// construction.
const enginePath = "geostat/internal/parallel"

// NoRawGoroutine enforces the single-execution-engine invariant: all
// goroutine fan-out lives in internal/parallel. Elsewhere, `go` statements
// and sync.WaitGroup worker pools are flagged — hand-rolled pools are
// exactly how nondeterministic scheduling leaks into statistic results
// (merge order, uncoordinated RNG draws), and they escape the engine's
// determinism tests. sync.Mutex is allowed: guarding an order-insensitive
// merge is fine; spawning is not.
var NoRawGoroutine = &analysis.Analyzer{
	Name: "norawgoroutine",
	Doc: "flags go statements and sync.WaitGroup pools outside internal/parallel; " +
		"use parallel.For/ForRange/ForScratch/MonteCarloCtx instead",
	Run: runNoRawGoroutine,
}

func runNoRawGoroutine(pass *analysis.Pass) error {
	if pass.PkgPath == enginePath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw goroutine outside internal/parallel; schedule through parallel.For/ForRange/ForScratch (or parallel.MonteCarloCtx for seeded fan-out)")
			case *ast.Ident:
				obj := pass.TypesInfo.Defs[n]
				if obj == nil {
					return true
				}
				if v, ok := obj.(*types.Var); ok && isWaitGroup(v.Type()) {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside internal/parallel; worker pools belong to the parallel engine")
				}
			}
			return true
		})
	}
	return nil
}

// isWaitGroup reports whether t is sync.WaitGroup, possibly behind
// pointers.
func isWaitGroup(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
