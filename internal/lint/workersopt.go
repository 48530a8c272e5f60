package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
)

// WorkersOpt guards the engine-threading contract of the options API:
// every exported entry point that accepts a worker count — either a
// `Workers` field on an options struct or a `workers int` parameter —
// must actually consume it (read the field, use the parameter, or forward
// the options/parameter to a callee that does). An accepted-but-ignored
// Workers option is an API lie: callers believe they bounded or widened
// the parallelism of a statistic when they did not, and a serial fallback
// silently masks engine regressions.
var WorkersOpt = &analysis.Analyzer{
	Name: "workersopt",
	Doc: "flags exported functions that accept a Workers option or workers " +
		"parameter without threading it onward (to parallel.* or a callee)",
	Run: runWorkersOpt,
}

func runWorkersOpt(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkWorkersFunc(pass, fd)
		}
	}
	return nil
}

func checkWorkersFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			switch {
			case name.Name == "workers" && isIntType(obj.Type()):
				if !paramThreaded(pass, fd, obj, false) {
					pass.Reportf(name.Pos(), "%s accepts a workers parameter but never uses it; thread it into a parallel.For*/MonteCarloCtx call or a callee", fd.Name.Name)
				}
			case hasWorkersField(obj.Type()):
				if !paramThreaded(pass, fd, obj, true) {
					pass.Reportf(name.Pos(), "%s accepts %s with a Workers field but neither reads .Workers nor forwards the options; the worker count is silently ignored", fd.Name.Name, name.Name)
				}
			}
		}
	}
}

// hasWorkersField reports whether t (possibly a pointer) is a struct with
// a Workers field.
func hasWorkersField(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Workers" {
			return true
		}
	}
	return false
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// paramThreaded reports whether the parameter (or a local alias assigned
// from it) is consumed inside the body: any use for plain parameters; a
// .Workers selector or whole-value forwarding (call argument, return,
// composite literal entry, alias assignment) for options structs.
func paramThreaded(pass *analysis.Pass, fd *ast.FuncDecl, param types.Object, optsStruct bool) bool {
	aliases := map[types.Object]bool{param: true}
	// Fixpoint over `x := opt` style aliases so copies that are later
	// consumed count as threading.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || i >= len(as.Lhs) {
					continue
				}
				if !aliases[pass.TypesInfo.ObjectOf(id)] {
					continue
				}
				lid, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				lobj := pass.TypesInfo.ObjectOf(lid)
				if lobj != nil && !aliases[lobj] {
					aliases[lobj] = true
					changed = true
				}
			}
			return true
		})
	}

	threaded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if threaded {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && aliases[pass.TypesInfo.ObjectOf(id)] {
				if !optsStruct || n.Sel.Name == "Workers" {
					threaded = true
					return false
				}
				// A method call on the options value counts: the method
				// body is free to read .Workers (e.g. cfg.workers()).
				if _, isMethod := pass.TypesInfo.Uses[n.Sel].(*types.Func); isMethod {
					threaded = true
					return false
				}
			}
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj == nil || !aliases[obj] {
				return true
			}
			if !optsStruct {
				// Any use of a plain workers parameter counts.
				threaded = true
				return false
			}
			if forwardedWhole(pass, fd, n) {
				threaded = true
				return false
			}
		}
		return true
	})
	return threaded
}

// forwardedWhole reports whether the identifier use appears where the
// whole options value escapes this function's control: as a call argument
// (possibly behind & or a selector-free conversion), in a return
// statement, or as a composite-literal element.
func forwardedWhole(pass *analysis.Pass, fd *ast.FuncDecl, id *ast.Ident) bool {
	path := nodePath(fd.Body, id.Pos())
	// Walk outward from the identifier: stop at the first context that
	// decides the question.
	for i := len(path) - 2; i >= 0; i-- {
		switch parent := path[i].(type) {
		case *ast.UnaryExpr, *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			return false // opt.Field — field access, not whole-value forwarding
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if containsPos(arg, id.Pos()) {
					return true
				}
			}
			return false
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		default:
			return false
		}
	}
	return false
}

// nodePath returns the chain of nodes from root down to the node whose
// position is pos.
func nodePath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(path, n)
		return true
	}
	ast.Inspect(root, walk)
	return path
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
