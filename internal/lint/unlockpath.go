package lint

import (
	"go/ast"

	"geostat/internal/lint/analysis"
)

// UnlockPath verifies that a sync.Mutex/RWMutex locked in a function is
// unlocked on every path to function exit — the control-flow complement
// to locksafe. locksafe bounds what happens INSIDE a critical section
// (no blocking work while held); unlockpath bounds where the section
// ENDS: an early return that skips the Unlock leaves every future
// contender deadlocked, which in geostatd means the registry, cache
// shard or flight group wedges the whole serving layer on the next
// request.
//
// The lock rule (receiver text as the tracking key, Lock/RLock vs
// Unlock/RUnlock pairing) is shared with locksafe: lockAcquisitions and
// isUnlock. Obligations are key-based: there is no first-class value to
// escape, so the only discharges are an unlock (direct or deferred,
// including a deferred closure that unlocks) on the same receiver with
// the matching flavour. Paths ending in panic or a no-return call are
// exempt — deferred unlocks run during panicking, and a process calling
// os.Exit has no waiters left to deadlock.
//
// Intentional lock-handoff patterns (lock here, unlock in a callee or
// another goroutine) are invisible to an intraprocedural analysis; they
// need a justified //lint:allow, which the suppression-debt gate counts.
var UnlockPath = &analysis.Analyzer{
	Name: "unlockpath",
	Doc: "a locked sync.Mutex/RWMutex is unlocked on every path to " +
		"return (deferred unlock counts)",
	Run: runUnlockPath,
}

func runUnlockPath(pass *analysis.Pass) error {
	return runObligations(pass, &obRule{
		acquisitions: lockAcquisitions,
		isRelease:    isUnlock,
		leak: func(ob *oblig) string {
			return ob.what + " is locked here but not unlocked on every path to return; the leaked path deadlocks the next contender"
		},
	})
}

// lockAcquisitions is the lock rule's acquisition scanner, shared with
// locksafe: each mu.Lock() or mu.RLock() statement creates a key
// obligation on the receiver's text, released by the matching flavour.
func lockAcquisitions(pass *analysis.Pass, node ast.Node) []*oblig {
	stmt, ok := node.(ast.Stmt)
	if !ok {
		return nil
	}
	name, pos, op, ok := lockOp(pass, stmt)
	if !ok {
		return nil
	}
	switch op {
	case "Lock":
		return []*oblig{{pos: pos, key: name, releaseOp: "Unlock", what: "mutex " + name}}
	case "RLock":
		return []*oblig{{pos: pos, key: name, releaseOp: "RUnlock", what: "mutex " + name}}
	}
	return nil
}

// isUnlock reports whether call releases ob: the matching flavour of
// unlock on the same receiver.
func isUnlock(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool {
	name, _, op, ok := lockCall(pass, call)
	return ok && op == ob.releaseOp && name == ob.key
}
