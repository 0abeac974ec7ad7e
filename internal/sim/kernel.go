// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock in nanoseconds and an event queue
// ordered by (time, sequence). Events are either plain callbacks or
// resumptions of simulated processes (see Proc). All simulated activity
// executes sequentially: a process is a coroutine that runs only while
// resumed and hands control back when it parks, so a simulation is
// deterministic given a fixed seed and is safe to inspect from event
// callbacks without locks.
//
// Events are values in a binary heap the kernel owns; scheduling one
// allocates nothing once the heap has grown. A scheduled event cannot be
// withdrawn. An owner that no longer wants one lets it fire and ignores
// it: At returns the event's sequence number and Firing reports the
// number of the event now running, so a callback bound once can tell its
// current event from a stale one. Pop order is the total (time,
// sequence) order, so an ignored event moves no other event.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// from time.Duration.
type Duration = time.Duration

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, sequence), so simultaneous events fire
// in scheduling order, which keeps runs reproducible.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Kernel is a discrete-event simulation executor.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	firing uint64
	queue  []event // binary min-heap under event.before
	rng    *RNG

	// Stepped counts processed events, for tests and budgeting.
	Stepped uint64
}

// NewKernel returns a kernel with its clock at zero and the given RNG seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random number generator.
func (k *Kernel) Rand() *RNG { return k.rng }

// At schedules fn to run at virtual time t and returns the event's
// sequence number, which is never 0. Scheduling in the past is an error
// and panics: it indicates a broken model rather than a recoverable
// condition.
func (k *Kernel) At(t Time, fn func()) uint64 {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	k.seq++
	e := event{at: t, seq: k.seq, fn: fn}
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	k.queue = q
	return e.seq
}

// After schedules fn to run d from now and returns its sequence number.
// Negative d panics.
func (k *Kernel) After(d Duration, fn func()) uint64 {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now+Time(d), fn)
}

// Firing returns the sequence number of the event now running (of the
// last one run, between events).
func (k *Kernel) Firing() uint64 { return k.firing }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) }

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	q := k.queue
	if len(q) == 0 {
		return false
	}
	e := q[0]
	// Sift the last event down from the root into the hole.
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	k.queue = q
	if e.at < k.now {
		panic("sim: time went backwards")
	}
	k.now = e.at
	k.firing = e.seq
	k.Stepped++
	e.fn()
	return true
}

// RunUntil processes events until the clock would pass t or the queue
// empties. Events scheduled exactly at t are executed. The clock is left
// at t (or at the last event time if the queue emptied earlier).
func (k *Kernel) RunUntil(t Time) {
	for len(k.queue) > 0 && k.queue[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor processes events for a span d of virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now + Time(d)) }

// Drain runs until no events remain. Useful for simulations with a
// natural end; simulations with periodic daemons never drain and should
// use RunUntil.
func (k *Kernel) Drain() {
	for k.Step() {
	}
}
