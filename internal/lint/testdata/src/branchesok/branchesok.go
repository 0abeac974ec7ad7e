// Package branchesok holds clean fixtures for the walker's break and
// continue handling: every path below releases what it acquired, and
// the walker must see that through the jumps — any finding here is a
// false positive.
package branchesok

import "repro/internal/golc"

// breakClean: the path that breaks out of the outer loop releases
// before leaving; the inner loop's break leaves only the inner loop;
// the in-loop path releases before iterating.
func breakClean(mu *golc.Mutex, ready func() bool) {
	for {
		mu.Lock()
		for {
			if ready() {
				break
			}
		}
		if ready() {
			mu.Unlock()
			break
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
