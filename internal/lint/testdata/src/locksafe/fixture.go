// Package fixture exercises locksafe: no mutex held across channel
// operations or may-block calls.
package fixture

import (
	"sync"
	"time"
)

var (
	mu sync.Mutex
	rw sync.RWMutex
	ch = make(chan int)
)

func sleepy() { time.Sleep(time.Millisecond) }

func quick() int { return 1 }

func badSend() {
	mu.Lock()
	ch <- 1 // want `channel send while mutex mu is held`
	mu.Unlock()
}

func badRecvDeferred() int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch // want `channel receive while mutex mu is held`
}

func badSelect() {
	mu.Lock()
	defer mu.Unlock()
	select { // want `select while mutex mu is held`
	case <-ch:
	default:
	}
}

func badStdlibCall() {
	mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time.Sleep while mutex mu is held`
	mu.Unlock()
}

func badTransitiveCall() {
	mu.Lock()
	defer mu.Unlock()
	sleepy() // want `call to fixture/locksafe.sleepy while mutex mu is held`
}

func badReadLock() {
	rw.RLock()
	defer rw.RUnlock()
	sleepy() // want `call to fixture/locksafe.sleepy while mutex rw is held`
}

func badInBranch(cond bool) {
	mu.Lock()
	defer mu.Unlock()
	if cond {
		ch <- 1 // want `channel send while mutex mu is held`
	}
}

func goodNonBlocking() {
	mu.Lock()
	_ = quick()
	mu.Unlock()
}

func goodUnlockFirst() {
	mu.Lock()
	n := quick()
	mu.Unlock()
	ch <- n
}

func goodClosureDefinedUnderLock() func() {
	mu.Lock()
	defer mu.Unlock()
	// Defining a closure under the lock is fine; it runs later. The call
	// that runs it is what locksafe checks.
	return func() { ch <- 1 }
}

func suppressed() {
	mu.Lock()
	defer mu.Unlock()
	//lint:allow locksafe fixture demonstrates an accepted send under lock
	ch <- 1
}

func badRangeChan() {
	mu.Lock()
	defer mu.Unlock()
	for v := range ch { // want `range over channel while mutex mu is held`
		_ = v
	}
}

func badRecvInIfHeader() {
	mu.Lock()
	defer mu.Unlock()
	if v := <-ch; v > 0 { // want `channel receive while mutex mu is held`
		_ = v
	}
}

func badRecvInSwitchTag() {
	mu.Lock()
	defer mu.Unlock()
	switch <-ch { // want `channel receive while mutex mu is held`
	case 1:
	}
}

func badRecvInForCond() {
	mu.Lock()
	defer mu.Unlock()
	for <-ch > 0 { // want `channel receive while mutex mu is held`
		_ = quick()
	}
}

// The select is reported once, at the select: its comm clause's receive
// is part of the select, not a second finding.
func badSelectCommRecv() {
	mu.Lock()
	defer mu.Unlock()
	select { // want `select while mutex mu is held`
	case v := <-ch:
		_ = v
	}
}

// With two locks held the message names the one acquired first.
func badTwoLocks() {
	mu.Lock()
	defer mu.Unlock()
	rw.Lock()
	defer rw.Unlock()
	ch <- 1 // want `channel send while mutex mu is held`
}

// Held regions follow paths: a lock taken inside an if is still held
// after it on the path through the branch.
func badLockInIf(cond bool) {
	if cond {
		mu.Lock()
		defer mu.Unlock()
	}
	ch <- 1 // want `channel send while mutex mu is held`
}

// A lock taken at the end of one iteration is held at the top of the next.
func badLockCarriedRoundLoop(n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			ch <- i // want `channel send while mutex mu is held`
			mu.Unlock()
		}
		mu.Lock()
	}
	mu.Unlock()
}

func badLockInNestedBlock() {
	{
		mu.Lock()
	}
	ch <- 1 // want `channel send while mutex mu is held`
	mu.Unlock()
}

// Case expressions run under the lock like the tag does.
func badRecvInCaseExpr() {
	mu.Lock()
	defer mu.Unlock()
	switch {
	case <-ch > 0: // want `channel receive while mutex mu is held`
	}
}
