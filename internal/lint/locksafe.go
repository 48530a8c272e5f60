package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
)

// LockSafe rejects blocking work inside mutex critical sections: between
// a sync.Mutex/RWMutex (R)Lock and its (R)Unlock, no channel operation,
// select, or call to a function carrying the MayBlock fact may appear.
// A goroutine that blocks while holding a lock stalls every other
// goroutine contending for it — in this codebase that means a slow
// metrics scrape or a stuck worker freezes request handling. This is the
// statically-checkable half of the registry race class fixed in PR 4.
//
// Critical sections are tracked per function by the obligation walker
// (obligation.go) with unlockpath's lock rule: a lock is held from its
// Lock() statement along every path until the matching Unlock() on the
// same receiver. Held regions are path-sensitive — a lock taken inside
// an if or a nested block is held after it on the paths through it, and
// one taken late in a loop body is held at the top of the next
// iteration — and a deferred unlock leaves the region open to function
// end. Where several locks are held, the diagnostic names the one
// acquired first in source order. Function literals are analyzed as
// their own scopes; a closure defined under a held lock is only flagged
// through the call that runs it (parallel.For carries MayBlock, so the
// common "fan out under lock" mistake is still caught at the call site).
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "no sync.Mutex/RWMutex held across channel operations or calls " +
		"that may block (MayBlock fact)",
	Requires:  []*analysis.Analyzer{BlockFacts},
	FactTypes: []analysis.Fact{(*MayBlock)(nil)},
	Run:       runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	report := reportOnce(pass)
	return runObligations(pass, &obRule{
		acquisitions: lockAcquisitions,
		isRelease:    isUnlock,
		held: func(pass *analysis.Pass, ob *oblig, n ast.Node) {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						report(n.Pos(), "range over channel while %s is held; release the lock before communicating", ob.what)
					}
				}
			case *ast.SelectStmt:
				report(n.Pos(), "select while %s is held; release the lock before communicating", ob.what)
			default:
				reportBlockingIn(pass, n, ob.what, report)
			}
		},
	})
}

// lockOp recognises a statement of the form `expr.Lock()` / `expr.Unlock()`
// (and RLock/RUnlock) on a sync.Mutex or sync.RWMutex, returning the
// receiver's source text as the tracking key.
func lockOp(pass *analysis.Pass, stmt ast.Stmt) (name string, pos token.Pos, op string, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", 0, "", false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", 0, "", false
	}
	return lockCall(pass, call)
}

func lockCall(pass *analysis.Pass, call *ast.CallExpr) (name string, pos token.Pos, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, "", false
	}
	fn := staticCallee(pass, call)
	if fn == nil {
		return "", 0, "", false
	}
	switch funcKey(fn) {
	case "(sync.Mutex).Lock", "(sync.RWMutex).Lock":
		return exprString(pass.Fset, sel.X), call.Pos(), "Lock", true
	case "(sync.RWMutex).RLock":
		return exprString(pass.Fset, sel.X), call.Pos(), "RLock", true
	case "(sync.Mutex).Unlock", "(sync.RWMutex).Unlock":
		return exprString(pass.Fset, sel.X), call.Pos(), "Unlock", true
	case "(sync.RWMutex).RUnlock":
		return exprString(pass.Fset, sel.X), call.Pos(), "RUnlock", true
	}
	return "", 0, "", false
}

// reportOnce returns a reporter that reports each position once. The
// walker re-walks a loop until its head settles and walks each lock on
// its own, so one construct can be reached several times; locks are
// walked in source order, so the first report names the lock acquired
// first.
func reportOnce(pass *analysis.Pass) func(token.Pos, string, ...any) {
	seen := map[token.Pos]bool{}
	return func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
}

// reportBlockingIn reports each blocking construct in one simple
// statement or expression (not descending into nested function
// literals), run while holder is held.
func reportBlockingIn(pass *analysis.Pass, root ast.Node, holder string, report func(token.Pos, string, ...any)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs later; the invoking call is checked instead
		case *ast.SendStmt:
			report(n.Pos(), "channel send while %s is held; release the lock before communicating", holder)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive while %s is held; release the lock before communicating", holder)
			}
		case *ast.CallExpr:
			fn := staticCallee(pass, n)
			if fn == nil {
				return true
			}
			key := funcKey(fn)
			if blockingStdlib[key] {
				report(n.Pos(), "call to %s while %s is held; it may block — release the lock first", key, holder)
				return true
			}
			var mb MayBlock
			if pass.ImportObjectFact(fn, &mb) {
				report(n.Pos(), "call to %s while %s is held; it may block (%s) — release the lock first", key, holder, mb.Why)
			}
		}
		return true
	})
}
