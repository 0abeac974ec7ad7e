// Package branchesok holds clean fixtures for the walker's labeled
// break/continue handling: every path below releases what it acquired,
// and the walker must see that through the jumps — any finding here is
// a false positive.
package branchesok

import "repro/internal/golc"

// labeledBreakClean: the break-out path releases before jumping; the
// in-loop paths release before iterating.
func labeledBreakClean(mu *golc.Mutex, ready func() bool) {
outer:
	for {
		mu.Lock()
		for {
			if ready() {
				mu.Unlock()
				break outer
			}
			if ready() {
				break
			}
		}
		mu.Unlock()
	}
}

// switchBreakClean: every switch arm releases before leaving, whether
// by break (out of the switch) or continue (next iteration).
func switchBreakClean(mu *golc.Mutex, next func() int) {
	for {
		mu.Lock()
		switch next() {
		case 0:
			mu.Unlock()
			break
		default:
			mu.Unlock()
			continue
		}
		return
	}
}
