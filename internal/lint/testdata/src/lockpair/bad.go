// Package lockpair holds failing fixtures for the lockpair analyzer:
// every acquisition here escapes the function on some path.
package lockpair

import (
	"errors"

	"repro/internal/golc"
)

var errFail = errors.New("fail")

type guarded struct {
	mu *golc.Mutex
	rw *golc.RWMutex
}

func missingOnErrorPath(g *guarded, fail bool) error {
	g.mu.Lock() // want `not released on every path`
	if fail {
		return errFail
	}
	g.mu.Unlock()
	return nil
}

func readLeak(g *guarded) int {
	g.rw.RLock() // want `not released on every path`
	return 1
}

func tryThenForget(g *guarded) {
	if g.mu.TryLock() { // want `not released on every path`
		return
	}
}

func wrongSideUnlocked(g *guarded) {
	g.rw.Lock() // want `not released on every path`
	g.rw.RUnlock()
}

func leakInOneArm(g *guarded, early bool) {
	g.mu.Lock() // want `not released on every path`
	if early {
		g.mu.Unlock()
		return
	}
	// falls off the end still holding
}

// lockHelper is an acquire helper: it returns holding g.mu, and its
// facts say so, so a caller's walk holds g.mu from the call on.
func (g *guarded) lockHelper() {
	//lint:allow lockpair fixture: acquire helper, callers release g.mu
	g.mu.Lock()
}

func helperReleaseDropped(g *guarded, fail bool) error {
	g.lockHelper() // want `call to lockHelper returns holding lockpair\.guarded\.mu, which is not released on every path: function can exit at line \d+ without releasing it`
	if fail {
		return errFail
	}
	g.mu.Unlock()
	return nil
}
