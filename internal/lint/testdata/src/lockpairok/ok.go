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

func deferred(g *guarded, fail bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fail {
		return errFail
	}
	return nil
}

func deferredInLiteral(g *guarded) {
	g.rw.Lock()
	defer func() {
		g.n++
		g.rw.Unlock()
	}()
	g.n++
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
		defer g.mu.Unlock()
		g.n++
	}
}

func tryNegated(g *guarded) {
	if !g.mu.TryLock() {
		return
	}
	g.n++
	g.mu.Unlock()
}

func tryViaVariable(g *guarded) {
	ok := g.rw.TryLock()
	if ok {
		g.n++
		g.rw.Unlock()
	}
}

func suppressedAcquireHelper(g *guarded) {
	//lint:allow lockpair fixture: acquire helper, callers release
	g.mu.Lock()
}

func readersPair(g *guarded) int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}
