// Package unlockpath exercises the path-sensitive unlock analysis:
// locks leaked by early returns, unlocks on all branches, deferred
// unlocks (direct and via closure), RLock/RUnlock flavour matching,
// panic-exempt paths, //lint:allow suppression, and the walk's control
// flow: loops left by break and continue (labeled ones included), select
// and switch clauses, and fallthrough.
package unlockpath

import "sync"

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (g *guarded) leakOnEarlyReturn(cond bool) int {
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	if cond {
		return 0 // leaks the lock: the next contender deadlocks
	}
	g.mu.Unlock()
	return g.n
}

func (g *guarded) unlockAllPaths(cond bool) int {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return 0
	}
	g.mu.Unlock()
	return g.n
}

func (g *guarded) deferUnlock() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func (g *guarded) deferClosureUnlock() int {
	g.mu.Lock()
	defer func() { g.mu.Unlock() }()
	return g.n
}

func (g *guarded) readPath(cond bool) int {
	g.rw.RLock() // want `mutex g\.rw is locked here but not unlocked on every path`
	if cond {
		g.rw.RUnlock()
		return 0
	}
	return g.n // leaks the read lock
}

// wrongFlavour: an RLock is not discharged by Unlock — that is a
// runtime fault on an RWMutex.
func (g *guarded) wrongFlavour() { // nolint-style mismatch
	g.rw.RLock() // want `mutex g\.rw is locked here but not unlocked on every path`
	g.rw.Unlock()
}

// relock: two critical sections are two independent obligations.
func (g *guarded) relock(cond bool) int {
	g.mu.Lock()
	g.mu.Unlock()
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	if cond {
		g.mu.Unlock()
		return 0
	}
	return g.n
}

func (g *guarded) panicExempt(cond bool) int {
	g.mu.Lock()
	if cond {
		panic("invariant broken") // abnormal exit: deferred state is gone anyway
	}
	g.mu.Unlock()
	return g.n
}

func (g *guarded) switchPaths(mode int) int {
	g.mu.Lock()
	switch mode {
	case 0:
		g.mu.Unlock()
		return 0
	case 1:
		g.mu.Unlock()
		return 1
	default:
		g.mu.Unlock()
	}
	return g.n
}

func (g *guarded) suppressed() int {
	//lint:allow unlockpath lock intentionally handed to the caller by documented contract
	g.mu.Lock()
	return g.n
}

// leakOnContinue: continue skips the Unlock, so the lock is still held
// when the loop exits and when the next iteration locks again.
func (g *guarded) leakOnContinue(xs []int) int {
	for _, x := range xs {
		g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
		if x < 0 {
			continue
		}
		g.n += x
		g.mu.Unlock()
	}
	return g.n
}

func (g *guarded) unlockBeforeContinue(xs []int) int {
	for _, x := range xs {
		g.mu.Lock()
		if x < 0 {
			g.mu.Unlock()
			continue
		}
		g.n += x
		g.mu.Unlock()
	}
	return g.n
}

// leakOnBreak: the only way out of for {} is the break, and it leaves
// holding the lock.
func (g *guarded) leakOnBreak(next func() (int, bool)) {
	for {
		g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
		v, ok := next()
		if !ok {
			break
		}
		g.n += v
		g.mu.Unlock()
	}
}

func (g *guarded) unlockAfterBreak(next func() (int, bool)) {
	for {
		g.mu.Lock()
		v, ok := next()
		if !ok {
			break
		}
		g.n += v
		g.mu.Unlock()
	}
	g.mu.Unlock()
}

func (g *guarded) selectUnlocks(a, b <-chan int) int {
	g.mu.Lock()
	select {
	case v := <-a:
		g.mu.Unlock()
		return v
	case <-b:
		g.mu.Unlock()
		return 0
	}
}

func (g *guarded) selectLeaks(a, b <-chan int) int {
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	select {
	case v := <-a:
		g.mu.Unlock()
		return v
	case <-b:
		return 0
	}
}

// selectFallsOut: the first case leaves the select still holding the
// lock, and the return after it leaks.
func (g *guarded) selectFallsOut(a, b <-chan int) int {
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	select {
	case v := <-a:
		g.n += v
	case <-b:
		g.mu.Unlock()
		return 0
	}
	return g.n
}

// selectBreak: break leaves the select past the case's Unlock.
func (g *guarded) selectBreak(a, b <-chan int) int {
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	select {
	case v := <-a:
		if v < 0 {
			break
		}
		g.mu.Unlock()
	case <-b:
		g.mu.Unlock()
	}
	return g.n
}

// switchWithoutDefault: a mode that matches no case skips every Unlock.
func (g *guarded) switchWithoutDefault(mode int) int {
	g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
	switch mode {
	case 0, 1:
		g.mu.Unlock()
	}
	return g.n
}

// fallthroughUnlocks: case 0 reaches the Unlock of case 1.
func (g *guarded) fallthroughUnlocks(mode int) int {
	g.mu.Lock()
	switch mode {
	case 0:
		g.n++
		fallthrough
	case 1:
		g.mu.Unlock()
	default:
		g.mu.Unlock()
	}
	return g.n
}

// leakOnLabeledBreak: break outer leaves both loops, past the Unlock
// that follows the inner one.
func (g *guarded) leakOnLabeledBreak(rows [][]int) int {
outer:
	for _, row := range rows {
		g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
		for _, v := range row {
			if v < 0 {
				break outer
			}
			g.n += v
		}
		g.mu.Unlock()
	}
	return g.n
}

// leakOnLabeledContinue: continue outer goes to the outer loop's next
// row, past the Unlock that follows the inner loop.
func (g *guarded) leakOnLabeledContinue(rows [][]int) int {
outer:
	for _, row := range rows {
		g.mu.Lock() // want `mutex g\.mu is locked here but not unlocked on every path`
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			g.n += v
		}
		g.mu.Unlock()
	}
	return g.n
}
