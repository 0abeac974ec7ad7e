// Package branches holds failing fixtures for the walker's branch
// handling and for the constructs it does not model. The first group
// leaks a lock, or parks while holding one, along a path only visible
// when break and continue carry the abstract state to the right join
// point. The walker does not follow a labeled branch (goto included) or
// a deferred release, and credits a TryLock's hold only to the branch
// of `if mu.TryLock() {`: each such construct is one lockpair finding,
// whether the path it hides leaks or not, and the only finding in its
// function under the whole suite.
package branches

import "repro/internal/golc"

// breakLeak: the break leaves the loop with mu still held; the function
// exits without an Unlock on that path.
func breakLeak(mu *golc.Mutex, ready func() bool) {
	for {
		mu.Lock() // want `mu\.Lock\(\) is not released on every path`
		if ready() {
			break
		}
		mu.Unlock()
	}
}

// continueLeak: the continue iterates with mu still held, so the loop
// can exit (and the function return) on a path that never released it
// — and the next iteration acquires while holding.
func continueLeak(mus []*golc.Mutex, skip func(int) bool) {
	for i, mu := range mus {
		mu.Lock() // want `mu\.Lock\(\) is not released on every path` `Lock may park while mu is held`
		if skip(i) {
			continue
		}
		mu.Unlock()
	}
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

// gotoUnheld: no lock is held along the goto, and it is still
// reported.
func gotoUnheld(mu *golc.Mutex, n int) int {
	mu.Lock()
	n++
	mu.Unlock()
	if n > 0 {
		goto done // want `goto done: lclint does not follow goto`
	}
	n = -n
done:
	return n
}

// labeledBreak: break outer leaves both loops with mu still held. Read
// as a break of the inner loop, it would let the outer loop acquire mu
// again while holding it.
func labeledBreak(mu *golc.Mutex, ready func() bool) {
outer:
	for {
		mu.Lock()
		for {
			if ready() {
				break outer // want `break outer: lclint does not follow a labeled break`
			}
		}
	}
}

// labeledContinue: continue loop leaves the inner loop with mu still
// held. Read as a continue of the inner loop, it would let the inner
// loop acquire mu again while holding it.
func labeledContinue(mus []*golc.Mutex, skip func() bool) {
loop:
	for _, mu := range mus {
		for {
			mu.Lock()
			if skip() {
				continue loop // want `continue loop: lclint does not follow a labeled continue`
			}
			mu.Unlock()
			break
		}
	}
}

// deferUnlock: the deferred release runs at every return, unseen.
func deferUnlock(mu *golc.Mutex, n int) int {
	mu.Lock()
	defer mu.Unlock() // want `deferred mu\.Unlock\(\): lclint does not follow deferred releases`
	return n + 1
}

// deferLiteral: a release inside a deferred function literal is a
// deferred release too.
func deferLiteral(mu *golc.Mutex, n *int) {
	mu.Lock()
	defer func() {
		*n++
		mu.Unlock() // want `deferred mu\.Unlock\(\): lclint does not follow deferred releases`
	}()
	*n++
}

// tryBinding: the probe's result goes through a variable, so the walker
// cannot tell which branch holds mu.
func tryBinding(mu *golc.Mutex, n *int) {
	ok := mu.TryLock() // want `mu\.TryLock\(\) outside .if mu\.TryLock\(\) \{.`
	if ok {
		*n++
		mu.Unlock()
	}
}

// tryNegated: the negated probe holds mu after the if, not in it.
func tryNegated(mu *golc.Mutex, n *int) {
	if !mu.TryLock() { // want `mu\.TryLock\(\) outside .if mu\.TryLock\(\) \{.`
		return
	}
	*n++
	mu.Unlock()
}
