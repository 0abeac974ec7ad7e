// Package p holds the failing side of the cross-package nestedpark
// fixture. Only this package is loaded as an analysis root: every
// finding below depends on whole-program facts for the imported
// package q — which the Program computes on demand, q not being a
// root — so this fixture fails if cross-package fact resolution breaks.
package p

import (
	"repro/internal/golc"
	"repro/internal/lint/testdata/src/crosspark/q"
)

type G struct {
	mu *golc.Mutex
}

// q.Touch parks two frames deep inside q; the report names the chain.
func nestedThroughImport(g *G) {
	g.mu.Lock()
	q.Touch() // want `call to q\.Touch may park .* while g\.mu is held`
	g.mu.Unlock()
}

// q.Grab's facts inject a synthetic q.Mu2 hold, so the park after it
// is nested even though no acquisition is visible in this package.
func parkWithHelperHold() {
	q.Grab()
	q.Touch() // want `call to q\.Touch may park .* while q\.Mu2 is held`
	q.Drop()
}

// After Drop releases the helper's hold, calling into q is fine.
func balanced(g *G) {
	q.Grab()
	q.Drop()
	q.Touch()
}
