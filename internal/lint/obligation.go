package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
)

// The obligation engine: a generic path-sensitive "acquire must be
// released on every path to return" analysis over each function body's
// syntax tree. bodyclose, unlockpath and locksafe are thin
// configurations of this engine.
//
// Model. An acquisition (client.Do, mu.Lock) creates an obligation. The
// engine follows it through every control-flow path forward from the
// acquisition (see walker); a path is discharged when it
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
//
// Held regions. A rule with a held hook is also handed each node run
// while its obligation is pending (locksafe: no blocking work under a
// mutex), so held regions are path-sensitive like leaks. For such a rule
// a deferred release leaves the region open to function end.

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
	// acquisitions inspects one node and returns the obligations it
	// creates. It may call pass.Reportf directly for acquisitions that
	// are wrong at birth (a discarded response).
	acquisitions func(pass *analysis.Pass, node ast.Node) []*oblig
	// isRelease reports whether call discharges ob.
	isRelease func(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool
	// leak renders the diagnostic for an obligation that reached a
	// normal exit still pending; nil reports no leaks.
	leak func(ob *oblig) string
	// held, if set, sees each node run while ob is pending: simple
	// statements, conditions, tags and case expressions, and each range
	// and select statement itself (not a select's comm clauses). A loop
	// head is re-walked, so a node may be seen more than once.
	held func(pass *analysis.Pass, ob *oblig, n ast.Node)
}

// runObligations applies rule to every function and function literal in
// the pass — each body is walked on its own.
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

// checkFuncObligations finds every acquisition in one function body,
// then walks the body once per obligation and reports those that reach
// a return, or the end of the body, still pending.
func checkFuncObligations(pass *analysis.Pass, rule *obRule, body *ast.BlockStmt) {
	found := &walker{pass: pass, rule: rule}
	found.list(body.List, false)
	for _, a := range found.acquired {
		w := &walker{pass: pass, rule: rule, ob: a.ob, at: a.node}
		if (w.list(body.List, false) || w.leaked) && rule.leak != nil {
			pass.Reportf(a.ob.pos, "%s", rule.leak(a.ob))
		}
	}
}

// walker follows one obligation through a function body as a single
// bit: "some path reaches here with it pending". Every walk method takes
// the bit on entry to a statement and returns it on the statement's
// normal exit; a path that leaves by return, break, continue, goto or
// panic contributes false there. goto is not followed: no file in the
// module uses it. With ob nil the walk only collects acquisitions; the
// bit then stays false, so every statement is visited exactly once.
type walker struct {
	pass *analysis.Pass
	rule *obRule
	ob   *oblig
	at   ast.Node // ob's acquisition node
	// leaked is set when a return is reached with the bit set.
	leaked   bool
	acquired []acquisition
	frames   []*frame
	labels   map[string]ast.Stmt
}

type acquisition struct {
	ob   *oblig
	node ast.Node
}

// frame is one enclosing for, range, switch or select: the OR of the
// bit at the breaks (and, for a loop, the continues) that target it.
type frame struct {
	stmt      ast.Stmt
	loop      bool
	brk, cont bool
}

// node runs one node: a simple statement, a return, or a branch
// condition, switch tag, case expression or range operand.
func (w *walker) node(n ast.Node, in bool) bool {
	w.hold(n, in)
	return w.run(n, in)
}

// hold hands n to the rule's held hook if the bit is set on reaching it.
func (w *walker) hold(n ast.Node, in bool) {
	if in && n != nil && w.rule.held != nil {
		w.rule.held(w.pass, w.ob, n)
	}
}

// run is node without the held hook.
func (w *walker) run(n ast.Node, in bool) bool {
	if n == nil {
		return in
	}
	if w.ob == nil {
		for _, ob := range w.rule.acquisitions(w.pass, n) {
			w.acquired = append(w.acquired, acquisition{ob, n})
		}
		return false
	}
	if n == w.at {
		return true
	}
	return in && !nodeResolves(w.pass, w.rule, w.ob, n)
}

func (w *walker) list(list []ast.Stmt, in bool) bool {
	for _, s := range list {
		in = w.stmt(s, in)
	}
	return in
}

func (w *walker) stmt(s ast.Stmt, in bool) bool {
	switch s := s.(type) {
	case nil:
		return in
	case *ast.BlockStmt:
		return w.list(s.List, in)
	case *ast.LabeledStmt:
		if w.labels == nil {
			w.labels = map[string]ast.Stmt{}
		}
		w.labels[s.Label.Name] = s.Stmt
		return w.stmt(s.Stmt, in)
	case *ast.ReturnStmt:
		if w.node(s, in) {
			w.leaked = true
		}
		return false
	case *ast.BranchStmt:
		if bit := w.target(s); bit != nil {
			*bit = *bit || in
		}
		return false
	case *ast.IfStmt:
		in = w.node(s.Cond, w.stmt(s.Init, in))
		then, els := w.split(s.Cond, in)
		then = w.stmt(s.Body, then)
		return w.stmt(s.Else, els) || then
	case *ast.ForStmt:
		return w.loop(s, w.stmt(s.Init, in), s.Cond, s.Body, s.Post)
	case *ast.RangeStmt:
		return w.loop(s, in, s.X, s.Body, nil)
	case *ast.SwitchStmt:
		return w.clauses(s, s.Body, w.node(s.Tag, w.stmt(s.Init, in)))
	case *ast.TypeSwitchStmt:
		return w.clauses(s, s.Body, w.node(s.Assign, w.stmt(s.Init, in)))
	case *ast.SelectStmt:
		w.hold(s, in)
		f := w.push(s, false)
		out := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			out = w.list(cc.Body, w.run(cc.Comm, in)) || out
		}
		w.pop()
		return out || f.brk
	default:
		return w.node(s, in) && !w.endsPath(s)
	}
}

// loop walks a loop until the bit at its head stops growing. The head
// evaluates cond (a for condition, or a range operand; nil for a for
// with no condition, which only break leaves); continue and the end of
// the body run post, then return to the head.
func (w *walker) loop(s ast.Stmt, in bool, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) bool {
	f := w.push(s, true)
	exit := false
	for head := in; ; {
		if _, ok := s.(*ast.RangeStmt); ok {
			w.hold(s, head)
		}
		b, e := w.split(cond, w.node(cond, head))
		exit = exit || e && cond != nil
		end := w.stmt(body, b)
		next := w.stmt(post, end || f.cont) || in
		if next == head {
			break
		}
		head = next
	}
	w.pop()
	return exit || f.brk
}

// clauses walks a switch or type switch body: every clause starts from
// the tag's bit, a trailing fallthrough carries a clause's bit into the
// next one, and without a default the bit also skips every clause.
func (w *walker) clauses(s ast.Stmt, body *ast.BlockStmt, in bool) bool {
	f := w.push(s, false)
	_, exprs := s.(*ast.SwitchStmt)
	out, carry, hasDefault := false, false, false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		bit := in || carry
		if exprs {
			for _, e := range cc.List {
				bit = w.node(e, bit)
			}
		}
		stmts := cc.Body
		fall := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall, stmts = true, stmts[:n-1]
			}
		}
		bit = w.list(stmts, bit)
		if carry = fall && bit; !fall {
			out = out || bit
		}
	}
	w.pop()
	return out || f.brk || in && !hasDefault
}

func (w *walker) push(s ast.Stmt, loop bool) *frame {
	f := &frame{stmt: s, loop: loop}
	w.frames = append(w.frames, f)
	return f
}

func (w *walker) pop() { w.frames = w.frames[:len(w.frames)-1] }

// target resolves a break or continue to the bit it feeds in its frame:
// the labeled statement's when there is a label, else the innermost
// frame's (the innermost loop's for continue). goto and fallthrough have
// none.
func (w *walker) target(s *ast.BranchStmt) *bool {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		f := w.frames[i]
		if s.Label != nil && f.stmt != w.labels[s.Label.Name] || s.Label == nil && !f.loop && s.Tok == token.CONTINUE {
			continue
		}
		if s.Tok == token.BREAK {
			return &f.brk
		}
		return &f.cont
	}
	return nil
}

// endsPath reports whether a simple statement calls panic or a
// no-return function outside any function literal: its path ends there
// without a report — deferred releases run on panic, and a process that
// exits has nothing left to leak to.
func (w *walker) endsPath(s ast.Stmt) bool {
	ends := false
	walkOwn(s, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			ends = true
		} else if fn := staticCallee(w.pass, call); fn != nil && noReturnFuncs[funcKey(fn)] {
			ends = true
		}
	})
	return ends
}

// split returns the bit along cond's true and false edges. The
// obligation cannot exist along the true edge of `err != nil` for the
// acquisition's own error result (acquire failed, resource never
// existed), or along the nil edge of a nil check on the resource itself.
func (w *walker) split(cond ast.Expr, in bool) (onTrue, onFalse bool) {
	if !in {
		return false, false // also the acquisition-collecting walk, which has no ob
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return in, in
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(x) {
		x = y
	} else if !isNilIdent(y) {
		return in, in
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return in, in
	}
	switch tested := w.pass.TypesInfo.Uses[id]; {
	case tested == nil:
		return in, in
	case tested == w.ob.errObj:
		// err != nil: the true edge has no resource; err == nil: the false edge.
		return be.Op == token.EQL, be.Op == token.NEQ
	case tested == w.ob.obj:
		// res == nil: the true edge has nothing to release.
		return be.Op == token.NEQ, be.Op == token.EQL
	}
	return in, in
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// nodeResolves reports whether executing node discharges the obligation:
// a release call, a deferred release, or an escape.
func nodeResolves(pass *analysis.Pass, rule *obRule, ob *oblig, node ast.Node) bool {
	if d, ok := node.(*ast.DeferStmt); ok {
		if rule.held != nil {
			return false // the held region runs on to function end
		}
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
			if escapeContext(pass.TypesInfo, stack, id) {
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
// not adopt the response — and only when their type can hold the
// resource: resp.StatusCode saved or returned is a number, not the body.
func escapeContext(info *types.Info, stack []ast.Node, id ast.Node) bool {
	child := id
	viaSel := false
	// holds reports whether the value moved, e, can carry the resource.
	holds := func(e ast.Node) bool {
		if !viaSel {
			return true
		}
		t := info.TypeOf(e.(ast.Expr))
		if t == nil {
			return true
		}
		_, basic := t.Underlying().(*types.Basic)
		return !basic
	}
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
			return holds(child)
		case *ast.AssignStmt:
			for _, r := range a.Rhs {
				if r == child {
					// `_ = res` silences unused-var; it stores nothing.
					return !allBlank(a.Lhs) && holds(child)
				}
			}
			return false // LHS: reassignment, not a use of the old value
		case *ast.ValueSpec:
			for _, v := range a.Values {
				if v == child {
					return holds(child)
				}
			}
			return false
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return holds(child)
		case *ast.SendStmt:
			return a.Value == child && holds(child)
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
// control never reaches the next statement, so the walk ends the path
// there without a report.
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

// valueAcquisitions is the acquisition scanner for value-mode rules
// (bodyclose): it finds matching calls in one node and classifies how
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
