package golc

import "runtime"

// The TATAS spin cadence shared by every lock in this package: waiters
// poll the lock word every iteration, check the sleep-slot pool every
// parkCheckEvery iterations once past the grace spin, and yield to the
// Go scheduler every goschedEvery iterations (a hard spin can starve
// the lock holder's goroutine off its P). Both are powers of two so the
// cadence tests are single masks, cheap enough for next to inline into
// every spin loop.
const (
	parkCheckEvery = 64
	goschedEvery   = 256
)

// cadence tracks one waiter's position in the spin cadence. The zero
// value takes the park path from the first interval on; set park to
// graceSpins to hold it off for the grace spin.
type cadence struct {
	spins int
	park  int
}

// next advances one failed-acquire iteration, yielding to the
// scheduler on the Gosched cadence, and reports whether this iteration
// should take the park path (claim a sleep slot). It must stay under
// the compiler's inlining budget — the spin loop is the hot path —
// which is why everything off the every-iteration path lives in slow.
func (c *cadence) next() bool {
	c.spins++
	if c.spins&(parkCheckEvery-1) != 0 {
		return false
	}
	return c.slow()
}

// slow is the once-per-parkCheckEvery tail of next: scheduler
// cooperation and the grace-spin test. A call here is noise — it runs
// on at most 1/64 of spin iterations.
//
//go:noinline
func (c *cadence) slow() bool {
	if c.spins&(goschedEvery-1) == 0 {
		runtime.Gosched()
	}
	return c.spins >= c.park
}
