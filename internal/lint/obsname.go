package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"geostat/internal/lint/analysis"
	"geostat/internal/obs"
)

// ObsName enforces the observability span-naming convention documented in
// internal/obs: span names are dotted lowercase `tool.stage` paths of one
// to three segments. It validates every string literal passed to
// obs.Trace / obs.NewTrace with the same obs.ValidSpanName the package
// documents, so the two can never disagree. Span names have no runtime
// check; metric names need none here, because the registry runs
// obs.ValidMetricName at registration and panics, and every registering
// file is exercised by a test. Names built dynamically (e.g.
// tool+".parse") are outside the static check.
var ObsName = &analysis.Analyzer{
	Name: "obsname",
	Doc:  "flags obs span name literals that violate the documented tool.stage naming convention",
	Run:  runObsName,
}

const obsPath = "geostat/internal/obs"

func runObsName(pass *analysis.Pass) error {
	if pass.PkgPath == obsPath {
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
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath ||
				(fn.Name() != "Trace" && fn.Name() != "NewTrace") {
				return true
			}
			// Both span constructors take (ctx, name).
			if name, lit, ok := stringArg(call, 1); ok {
				if err := obs.ValidSpanName(name); err != nil {
					pass.Reportf(lit.Pos(), "obs span name: %v", err)
				}
			}
			return true
		})
	}
	return nil
}

// stringArg returns the string literal at argument position i, if any.
func stringArg(call *ast.CallExpr, i int) (string, *ast.BasicLit, bool) {
	if i >= len(call.Args) {
		return "", nil, false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", nil, false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", nil, false
	}
	return s, lit, true
}
