package lint

import (
	"go/ast"
	"go/types"

	"geostat/internal/lint/analysis"
)

// Shared call-graph plumbing for the fact-producing analyzers: resolving
// the static callee of a call expression and naming functions for the
// curated stdlib behaviour tables.

// staticCallee resolves call to the *types.Func it invokes when that is
// statically known: package-level functions (possibly qualified) and
// methods called on concrete receivers. Calls through function values and
// interface methods return nil — fact analyzers treat them as unknown.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// An interface method has no body to have computed facts for;
			// treat it as dynamic.
			if recv := sel.Recv(); recv != nil {
				if _, isIface := recv.Underlying().(*types.Interface); isIface {
					return nil
				}
			}
			return fn
		}
		// No selection entry: a package-qualified call (pkg.F).
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcKey names fn for lookup in the stdlib behaviour tables:
// "time.Sleep" for package functions, "(sync.WaitGroup).Wait" for methods
// (pointer receivers are collapsed onto the named type).
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
		}
		return "(" + t.String() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// funcInfo pairs a declared function with its object. Collected in file
// and declaration order so fact fixpoints iterate deterministically.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// packageFuncs returns every function/method declared with a body in the
// pass's package, in source order.
func packageFuncs(pass *analysis.Pass) []funcInfo {
	var out []funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, funcInfo{fn: fn, decl: fd})
		}
	}
	return out
}
