package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"geostat/internal/lint/analysis"
)

// CtxFlow enforces the context-threading convention: cancellation must
// reach every level of the compute stack, so long-running tile jobs can
// be abandoned when the client goes away.
//
// Two rules:
//
//  1. context.Background() / context.TODO() may appear only in main
//     packages (program roots own the root context), in the parallel
//     engine's sugar.go (the context-free forms of its loops, for
//     callers that hold no context), or inside functions that
//     themselves return a context.Context (normalizers like
//     Options.context() that substitute a default for nil).
//
//  2. A function that receives a context.Context must not drop it: a
//     call to F when the callee's package also provides FCtx (same name
//     + "Ctx" suffix, accepting a context) is flagged — the ctx-aware
//     variant must be used so cancellation threads through. Functions
//     that store their ctx into a struct field (the Options.Ctx
//     threading idiom: `opt.Ctx = ctx; return KDVDataset(d, opt)`) are
//     exempt — the context travels inside the options value.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "context.Background/TODO confined to main, the parallel engine's sugar.go, and " +
		"context normalizers; functions holding a ctx must call FCtx variants, not F",
	Run: runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	storesCache := make(map[ast.Node]bool)
	for _, f := range pass.Files {
		enclosingFuncs(f, func(n ast.Node, encl ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := staticCallee(pass, call)
			if fn == nil {
				return
			}
			key := funcKey(fn)
			if key == "context.Background" || key == "context.TODO" {
				if isMain || isEngineSugar(pass, call) || returnsContext(pass, encl) {
					return
				}
				pass.Reportf(call.Pos(), "%s() outside a main package or the parallel engine's sugar.go: accept a context.Context and thread it through", key)
				return
			}
			if encl == nil || !hasContextParam(pass, encl) {
				return
			}
			if signatureTakesContext(fn) {
				return
			}
			if storesCtxInField(pass, encl, storesCache) {
				return
			}
			if alt := ctxVariant(fn); alt != "" {
				pass.Reportf(call.Pos(), "call to %s drops ctx: this function receives a context.Context, call %s and pass it", key, alt)
			}
		})
	}
	return nil
}

// isEngineSugar reports whether call sits in the one engine file allowed
// to mint a context: the context-free loop forms in sugar.go.
func isEngineSugar(pass *analysis.Pass, call *ast.CallExpr) bool {
	return pass.PkgPath == enginePath &&
		filepath.Base(pass.Fset.Position(call.Pos()).Filename) == "sugar.go"
}

// storesCtxInField reports whether the enclosing function assigns a
// context.Context value into a struct field — the options-threading
// idiom. Such a function passes its ctx inside a value the signature
// check cannot see, so the dropped-ctx rule stands down.
func storesCtxInField(pass *analysis.Pass, encl ast.Node, cache map[ast.Node]bool) bool {
	if v, ok := cache[encl]; ok {
		return v
	}
	stores := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if stores {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if t := pass.TypesInfo.TypeOf(sel); t != nil && isContextType(t) {
				stores = true
			}
		}
		return true
	})
	cache[encl] = stores
	return stores
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// returnsContext reports whether the enclosing function-like node has a
// context.Context among its results.
func returnsContext(pass *analysis.Pass, encl ast.Node) bool {
	sig := enclSignature(pass, encl)
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isContextType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// hasContextParam reports whether the enclosing function-like node takes
// a context.Context parameter.
func hasContextParam(pass *analysis.Pass, encl ast.Node) bool {
	sig := enclSignature(pass, encl)
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func enclSignature(pass *analysis.Pass, encl ast.Node) *types.Signature {
	switch e := encl.(type) {
	case *ast.FuncDecl:
		if fn, ok := pass.TypesInfo.Defs[e.Name].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok {
				return sig
			}
		}
	case *ast.FuncLit:
		if t := pass.TypesInfo.TypeOf(e); t != nil {
			if sig, ok := t.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// signatureTakesContext reports whether fn accepts a context.Context.
func signatureTakesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxVariant returns the name of fn's context-accepting sibling
// (fn.Name()+"Ctx" in the same package, taking a context.Context), or ""
// if there is none. Methods are skipped: the convention only names
// package-level variants.
func ctxVariant(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return ""
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	alt, ok := pkg.Scope().Lookup(fn.Name() + "Ctx").(*types.Func)
	if !ok || !signatureTakesContext(alt) {
		return ""
	}
	return pkg.Name() + "." + alt.Name()
}
