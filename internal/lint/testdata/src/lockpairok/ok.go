// Package lockpairok holds clean fixtures for the lockpair analyzer:
// every shape here releases on all paths and must produce no findings.
package lockpairok

import (
	"errors"

	"repro/internal/golc"
)

var errFail = errors.New("fail")

type guarded struct {
	mu *golc.Mutex
	rw *golc.RWMutex
	n  int
}

func explicitOnBothArms(g *guarded, fail bool) error {
	g.mu.Lock()
	if fail {
		g.mu.Unlock()
		return errFail
	}
	g.mu.Unlock()
	return nil
}

func tryGuardedBranch(g *guarded) {
	if g.mu.TryLock() {
		g.n++
		g.mu.Unlock()
	}
}

func suppressedAcquireHelper(g *guarded) {
	//lint:allow lockpair fixture: acquire helper, callers release
	g.mu.Lock()
}

// A release with no textual acquire pairs with the hold the acquire
// helper's facts put in the caller's held set.
func helperReleased(g *guarded, fail bool) error {
	suppressedAcquireHelper(g)
	if fail {
		g.mu.Unlock()
		return errFail
	}
	g.n++
	g.mu.Unlock()
	return nil
}

func readersPair(g *guarded) int {
	g.rw.RLock()
	n := g.n
	g.rw.RUnlock()
	return n
}
