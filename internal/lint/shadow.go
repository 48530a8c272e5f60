package lint

// shadow is the one general-purpose pass geolint runs: `go vet`'s default
// suite has none (the x/tools shadow analyzer is opt-in and outside the
// standard library), and it has caught real bugs here. It is implemented
// against go/ast+go/types directly and deliberately conservative: a miss
// is acceptable, a noisy false positive is not, because `make lint` must
// stay exit-0 on a healthy tree.

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
)

// Shadow flags an inner := that redeclares a variable of an enclosing
// function scope with an identical type, where the outer variable is used
// again after the shadowing scope closes — the footgun where a result or
// err assigned inside a block is silently a different variable.
var Shadow = &analysis.Analyzer{
	Name: "shadow",
	Doc: "flags declarations that shadow an outer variable of the same type " +
		"which is still used after the inner scope ends",
	Run: runShadow,
}

func runShadow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				inner := pass.TypesInfo.Defs[id]
				if inner == nil {
					continue
				}
				checkShadow(pass, f, id, inner)
			}
			return true
		})
	}
	return nil
}

func checkShadow(pass *analysis.Pass, f *ast.File, id *ast.Ident, inner types.Object) {
	innerScope := inner.Parent()
	if innerScope == nil {
		return
	}
	// Find what the same name resolves to just outside the declaration.
	outerScope := innerScope.Parent()
	if outerScope == nil {
		return
	}
	scope, outer := outerScope.LookupParent(id.Name, id.Pos())
	if outer == nil || scope == types.Universe || outer.Parent() == pass.Pkg.Scope() {
		return // no shadowing, a builtin, or a package-level name (config, not a local footgun)
	}
	ov, ok := outer.(*types.Var)
	if !ok || !types.Identical(ov.Type(), inner.Type()) {
		return
	}
	// Only report when the outer variable is used after the inner scope
	// ends — that is where reads silently miss the inner assignment.
	end := innerScope.End()
	for useID, useObj := range pass.TypesInfo.Uses {
		if useObj == outer && useID.Pos() > end {
			pass.Reportf(id.Pos(), "declaration of %q shadows a variable of the same type at %s which is used again after this scope",
				id.Name, pass.Fset.Position(outer.Pos()))
			return
		}
	}
}
