package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
	"geostat/internal/lint/cfg"
)

// The obligation engine: a generic path-sensitive "acquire must be
// released on every path to return" analysis over the CFGs built by
// internal/lint/cfg. bodyclose and unlockpath are thin configurations of
// this engine.
//
// Model. An acquisition (client.Do, mu.Lock) creates an obligation.
// Starting from the acquisition point the engine explores every
// control-flow path forward; a path is discharged when it
//
//   - releases the obligation (resp.Body.Close(), mu.Unlock());
//   - registers a deferred release (`defer resp.Body.Close()`, including a
//     deferred func literal whose body releases) — defers run on every
//     exit, normal or panicking, of any path that continues past the
//     defer statement;
//   - lets the obligation escape: the resource value is returned, passed
//     as a call argument, stored into a variable/field/map/slice, sent on
//     a channel, captured by a function literal, or its address is taken.
//     Ownership has transferred to code this intraprocedural analysis
//     cannot see, so responsibility transfers with it;
//   - ends in panic or a no-return call (os.Exit, log.Fatal): the
//     process or goroutine is gone, deferred cleanup has run, and
//     reporting would only produce noise on guard clauses;
//   - is statically impossible for this obligation: along the true edge
//     of `err != nil` (where err is the acquisition's error result) the
//     resource was never acquired, and along the nil edge of a
//     `res == nil` check there is nothing to release.
//
// A path that reaches the function's normal exit with the obligation
// still pending is a leak, reported at the acquisition site.
//
// Escapes are the engine's deliberate unsoundness valve: passing or
// storing the resource optimistically assumes the receiver releases it.
// The analyzers therefore prefer missed leaks over false alarms —
// //lint:allow should only ever be needed where even this escape rule is
// too weak (and every such allow is counted by the suppression-debt
// gate).
//
// Reads are not escapes: using a field of the resource (resp.StatusCode),
// comparing it (resp == nil), or passing a derived selector to a function
// (io.ReadAll(resp.Body)) keeps the obligation live. Only the resource
// identifier itself moving into return/arg/store positions — or any
// derived value being returned or stored — transfers it.

// oblig is one tracked obligation within one function.
type oblig struct {
	// pos is the acquisition site (diagnostics anchor here).
	pos token.Pos
	// obj is the variable bound to the resource; nil for key-based
	// obligations (unlockpath), which have no first-class value.
	obj types.Object
	// errObj is the error result bound by the same acquisition (nil if
	// none): branches on it refine where the obligation exists.
	errObj types.Object
	// key identifies a key-based obligation (mutex receiver text);
	// releaseOp is the call name that discharges it (Unlock/RUnlock).
	key       string
	releaseOp string
	// what names the resource in diagnostics.
	what string
}

// obRule configures the engine for one analyzer.
type obRule struct {
	// acquisitions inspects one CFG node and returns the obligations it
	// creates. It may call pass.Reportf directly for acquisitions that
	// are wrong at birth (a discarded response).
	acquisitions func(pass *analysis.Pass, node ast.Node) []*oblig
	// isRelease reports whether call discharges ob.
	isRelease func(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool
	// leak renders the diagnostic for an obligation that reached a
	// normal exit still pending.
	leak func(ob *oblig) string
}

// runObligations applies rule to every function and function literal in
// the pass — each gets its own CFG and its own obligation tracking.
func runObligations(pass *analysis.Pass, rule *obRule) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncObligations(pass, rule, fn.Body)
				}
			case *ast.FuncLit:
				checkFuncObligations(pass, rule, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFuncObligations builds the function's CFG, finds every
// acquisition, and tracks each obligation to all exits.
func checkFuncObligations(pass *analysis.Pass, rule *obRule, body *ast.BlockStmt) {
	g := cfg.New(body, cfg.Options{NoReturn: func(call *ast.CallExpr) bool {
		return noReturnCall(pass, call)
	}})
	for _, blk := range g.Blocks {
		for i, node := range blk.Nodes {
			for _, ob := range rule.acquisitions(pass, node) {
				if leaks(pass, rule, g, ob, blk, i+1) {
					pass.Reportf(ob.pos, "%s", rule.leak(ob))
				}
			}
		}
	}
}

// leaks explores every path from the acquisition forward. Returns true
// iff some path reaches the normal exit with the obligation pending.
func leaks(pass *analysis.Pass, rule *obRule, g *cfg.Graph, ob *oblig, start *cfg.Block, startIdx int) bool {
	type item struct {
		b   *cfg.Block
		idx int
	}
	visited := make([]bool, len(g.Blocks))
	work := []item{{start, startIdx}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		resolved := false
		for j := it.idx; j < len(it.b.Nodes); j++ {
			if nodeResolves(pass, rule, ob, it.b.Nodes[j]) {
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		if it.b == g.Exit {
			return true
		}
		for si, s := range it.b.Succs {
			if s == g.Panic {
				continue // abnormal exit: defers ran, process is going away
			}
			if branchWaives(pass, ob, it.b, si) {
				continue // obligation provably absent along this edge
			}
			if !visited[s.Index] {
				visited[s.Index] = true
				work = append(work, item{s, 0})
			}
		}
	}
	return false
}

// branchWaives reports whether the obligation cannot exist along edge si
// of a branching block: the true edge of `err != nil` for the
// acquisition's own error result (acquire failed, resource never
// existed), or the nil edge of a nil-check on the resource itself.
func branchWaives(pass *analysis.Pass, ob *oblig, b *cfg.Block, si int) bool {
	if b.Cond == nil || len(b.Succs) != 2 {
		return false
	}
	be, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(y) {
		// fall through with x as the tested expression
	} else if isNilIdent(x) {
		x = y
	} else {
		return false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	tested := pass.TypesInfo.Uses[id]
	if tested == nil {
		return false
	}
	// trueEdge is si == 0 (cfg contract: Succs[0] taken when Cond holds).
	trueEdge := si == 0
	switch tested {
	case ob.errObj:
		// err != nil: true edge has no resource. err == nil: false edge.
		return (be.Op == token.NEQ) == trueEdge
	case ob.obj:
		// res == nil: true edge has nothing to release.
		return (be.Op == token.EQL) == trueEdge
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// nodeResolves reports whether executing node discharges the obligation:
// a release call, a deferred release, or an escape.
func nodeResolves(pass *analysis.Pass, rule *obRule, ob *oblig, node ast.Node) bool {
	if d, ok := node.(*ast.DeferStmt); ok {
		if rule.isRelease(pass, d.Call, ob) {
			return true
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			// defer func() { ... resp.Body.Close() ... }(): the closure's
			// body runs at exit; a release anywhere in it discharges the
			// obligation.
			released := false
			walkOwn(lit.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok && rule.isRelease(pass, call, ob) {
					released = true
				}
			})
			if released {
				return true
			}
		}
		// defer cleanup(f): the resource escapes into the deferred call.
		if ob.obj != nil && escapes(pass, ob.obj, d) {
			return true
		}
		return false
	}
	released := false
	walkOwn(node, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && rule.isRelease(pass, call, ob) {
			released = true
		}
	})
	if released {
		return true
	}
	return ob.obj != nil && escapes(pass, ob.obj, node)
}

// escapes reports whether node transfers ownership of obj: the
// identifier (or a value derived from it) moves into a return, call
// argument, store, composite literal, channel send, address-of, or is
// captured by a function literal.
func escapes(pass *analysis.Pass, obj types.Object, node ast.Node) bool {
	found := false
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			// Closure capture: the literal may release or hold the
			// resource at any later time — ownership is out of this
			// function's hands.
			if refsObject(pass, lit, obj) {
				found = true
			}
			return false // don't double-count interior uses (and no push)
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			if escapeContext(stack, id) {
				found = true
			}
		}
		stack = append(stack, n)
		return true
	})
	return found
}

// escapeContext decides whether one use of the resource identifier, with
// the given ancestor stack (outermost first), transfers ownership.
// viaSel distinguishes the resource itself from a derived value
// (resp.Body): derived values escape through returns and stores but not
// through call arguments — io.ReadAll(resp.Body) reads the body, it does
// not adopt the response.
func escapeContext(stack []ast.Node, id ast.Node) bool {
	child := id
	viaSel := false
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
			// Transparent wrappers: keep walking up.
		case *ast.SelectorExpr:
			if a.Sel == child {
				return false // the field name itself, not a value use
			}
			viaSel = true
		case *ast.CallExpr:
			if a.Fun == child {
				return false // method call on the resource (release or read)
			}
			return !viaSel // the resource itself as an argument escapes
		case *ast.ReturnStmt:
			return true
		case *ast.AssignStmt:
			for _, r := range a.Rhs {
				if r == child {
					// `_ = res` silences unused-var; it stores nothing.
					return !allBlank(a.Lhs)
				}
			}
			return false // LHS: reassignment, not a use of the old value
		case *ast.ValueSpec:
			for _, v := range a.Values {
				if v == child {
					return true
				}
			}
			return false
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.SendStmt:
			return a.Value == child
		case *ast.UnaryExpr:
			if a.Op == token.AND {
				return true // address escapes
			}
			return false
		case *ast.BinaryExpr:
			return false // comparisons/arithmetic read, they don't transfer
		default:
			return false
		}
		child = stack[i]
	}
	return false
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// refsObject reports whether any identifier under root resolves to obj.
func refsObject(pass *analysis.Pass, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// noReturnFuncs are calls that terminate the goroutine or process:
// control never reaches the next statement, so the CFG routes them to
// the panic exit.
var noReturnFuncs = map[string]bool{
	"os.Exit":        true,
	"runtime.Goexit": true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
	"log.Panic":      true,
	"log.Panicf":     true,
	"log.Panicln":    true,
}

// walkOwn visits every node of body except nested function literals.
func walkOwn(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func noReturnCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass, call)
	return fn != nil && noReturnFuncs[funcKey(fn)]
}

// valueAcquisitions is the acquisition scanner for value-mode rules
// (bodyclose): it finds matching calls in one CFG node and classifies how
// their results are bound.
//
//   - `res, err := acquire(...)` binds an obligation to res (and its
//     error sibling for branch refinement);
//   - binding the resource to `_`, or dropping the whole result
//     (`acquire(...)` as a statement), is wrong at birth — reported
//     immediately via discard;
//   - a call in any other position (return value, argument, field
//     store, composite literal) escapes at birth: ownership moved in
//     the same expression, nothing to track.
//
// match inspects a statically-resolved callee and reports the result
// index of the resource, the index of its error sibling (-1 if none),
// and the diagnostic name of the resource.
func valueAcquisitions(
	pass *analysis.Pass,
	node ast.Node,
	match func(fn *types.Func, sig *types.Signature) (resIdx, errIdx int, what string, ok bool),
	discard func(pass *analysis.Pass, call *ast.CallExpr, what string),
) []*oblig {
	var out []*oblig
	bind := func(lhs []ast.Expr, call *ast.CallExpr, resIdx, errIdx int, what string) {
		if resIdx >= len(lhs) {
			return
		}
		id, ok := ast.Unparen(lhs[resIdx]).(*ast.Ident)
		if !ok {
			return // stored straight into a field/element: escaped at birth
		}
		if id.Name == "_" {
			discard(pass, call, what)
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		ob := &oblig{pos: call.Pos(), obj: obj, what: what}
		if errIdx >= 0 && errIdx < len(lhs) {
			if eid, ok := ast.Unparen(lhs[errIdx]).(*ast.Ident); ok && eid.Name != "_" {
				if eobj := pass.TypesInfo.Defs[eid]; eobj != nil {
					ob.errObj = eobj
				} else {
					ob.errObj = pass.TypesInfo.Uses[eid]
				}
			}
		}
		out = append(out, ob)
	}
	matchCall := func(call *ast.CallExpr) (int, int, string, bool) {
		fn := staticCallee(pass, call)
		if fn == nil {
			return 0, 0, "", false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return 0, 0, "", false
		}
		return match(fn, sig)
	}
	switch n := node.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				if resIdx, errIdx, what, ok := matchCall(call); ok {
					bind(n.Lhs, call, resIdx, errIdx, what)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if resIdx, errIdx, what, ok := matchCall(call); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					bind(lhs, call, resIdx, errIdx, what)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if _, _, what, ok := matchCall(call); ok {
				discard(pass, call, what)
			}
		}
	}
	return out
}
