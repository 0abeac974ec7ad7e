// Package branches holds failing fixtures for the walker's labeled
// break/continue handling: each function leaks a lock, or parks while
// holding one, along a path only visible when branch targets carry the
// abstract state to the right join point. The walker does not follow
// goto: every goto is one lockpair finding, whether the path it hides
// leaks (gotoLeak, gotoPark) or not (gotoCleanup, deferGoto).
package branches

import "repro/internal/golc"

// labeledBreakLeak: break outer jumps out of both loops with mu still
// held; the function exits without an Unlock on that path.
func labeledBreakLeak(mu *golc.Mutex, ready func() bool) {
outer:
	for {
		mu.Lock() // want `mu\.Lock\(\) is not released on every path`
		for {
			if ready() {
				break outer
			}
		}
	}
}

// continueLeak: the labeled continue iterates with mu still held, so
// the loop can exit (and the function return) on a path that never
// released it — and the next iteration acquires while holding.
func continueLeak(mus []*golc.Mutex, skip func(int) bool) {
loop:
	for i, mu := range mus {
		mu.Lock() // want `mu\.Lock\(\) is not released on every path` `Lock may park while mu is held`
		if skip(i) {
			continue loop
		}
		mu.Unlock()
	}
}

// gotoLeak: the goto path jumps over the Unlock.
func gotoLeak(mu *golc.Mutex, n int) int {
	mu.Lock()
	if n > 0 {
		goto done // want `goto done: lclint does not follow goto`
	}
	mu.Unlock()
	return 0
done:
	return n
}

// gotoPark: the goto carries the held set to the label, where a second
// acquisition parks while a is held.
func gotoPark(a, b *golc.Mutex, n int) {
	a.Lock()
	if n > 0 {
		goto wait // want `goto wait: lclint does not follow goto`
	}
	a.Unlock()
	return
wait:
	b.Lock()
	b.Unlock()
	a.Unlock()
}

// gotoCleanup: both the jump path and the fall-through path release,
// but the walker cannot see it.
func gotoCleanup(mu *golc.Mutex, n int) {
	mu.Lock()
	if n > 0 {
		goto done // want `goto done: lclint does not follow goto`
	}
	mu.Unlock()
	return
done:
	mu.Unlock()
}

// deferGoto: a deferred release covers the goto path, and the goto is
// still reported.
func deferGoto(mu *golc.Mutex, n int) int {
	mu.Lock()
	defer mu.Unlock()
	if n > 0 {
		goto done // want `goto done: lclint does not follow goto`
	}
	n = -n
done:
	return n
}

// switchBreakLeak: the break leaves the switch, not the loop — the
// path that falls out of the switch returns with mu held.
func switchBreakLeak(mu *golc.Mutex, next func() int) {
	for {
		mu.Lock() // want `mu\.Lock\(\) is not released on every path`
		switch next() {
		case 0:
			break
		default:
			mu.Unlock()
			continue
		}
		return
	}
}
