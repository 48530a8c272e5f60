package lint

import (
	"go/ast"
	"go/types"

	"geostat/internal/lint/analysis"
)

// SeededRand enforces the seeded-randomness invariant: every random draw in
// production code comes from an explicitly seeded source that was threaded
// in through options, so that any statistic (permutation test, envelope,
// sampled KDV) is bit-reproducible from its recorded seed. The math/rand
// package-level functions draw from the shared global source — results then
// depend on whatever else has consumed it — and ad-hoc rand.New calls
// scatter seed policy across the codebase. Construction is centralised in
// internal/parallel (parallel.NewRand, parallel.MonteCarloCtx);
// accepting an already-seeded *rand.Rand as a parameter remains fine.
var SeededRand = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "flags math/rand global functions and rand.New outside internal/parallel; " +
		"thread a seed through options and use parallel.NewRand/parallel.MonteCarloCtx",
	Run: runSeededRand,
}

// seededRandExempt lists math/rand(/v2) functions that only build Source
// values: they carry an explicit seed already and are always consumed by a
// constructor that is itself flagged, so reporting them would double up.
var seededRandExempt = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func runSeededRand(pass *analysis.Pass) error {
	if pass.PkgPath == enginePath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel]
			if !ok {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand (an explicit seeded source) are fine;
			// only package-level functions are policed.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if seededRandExempt[fn.Name()] {
				return true
			}
			if fn.Name() == "New" {
				pass.Reportf(call.Pos(), "rand.New outside internal/parallel; use parallel.NewRand(seed) (or parallel.MonteCarloCtx for task fan-out) so seed policy stays in one place")
			} else {
				pass.Reportf(call.Pos(), "%s.%s draws from the global source; thread a seed through options and use parallel.NewRand/parallel.MonteCarloCtx", path, fn.Name())
			}
			return true
		})
	}
	return nil
}
