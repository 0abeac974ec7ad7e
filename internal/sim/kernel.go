// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock in nanoseconds and an event queue
// ordered by (time, sequence). Events are either plain callbacks or
// resumptions of simulated processes (see Proc). All simulated activity
// executes sequentially: a process is a coroutine that runs only while
// resumed and hands control back when it parks, so a simulation is
// deterministic given a fixed seed and is safe to inspect from event
// callbacks without locks.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// from time.Duration.
type Duration = time.Duration

// Event is a scheduled callback. Events are created by Kernel.At and
// Kernel.After and may be cancelled until they fire.
type Event struct {
	at     Time
	seq    uint64
	index  int // heap index, -1 when not queued
	fn     func()
	fired  bool
	cancel bool
}

// Time returns the virtual time at which the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// Kernel is a discrete-event simulation executor.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventHeap
	rng   *RNG

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

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error and panics: it indicates a broken model rather than a recoverable
// condition.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	k.seq++
	e := &Event{at: t, seq: k.seq, fn: fn, index: -1}
	heap.Push(&k.queue, e)
	return e
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now+Time(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.fired || e.cancel || e.index < 0 {
		return false
	}
	e.cancel = true
	heap.Remove(&k.queue, e.index)
	e.index = -1
	return true
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.queue.Len() }

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	if k.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*Event)
	e.index = -1
	if e.at < k.now {
		panic("sim: time went backwards")
	}
	k.now = e.at
	e.fired = true
	k.Stepped++
	e.fn()
	return true
}

// RunUntil processes events until the clock would pass t or the queue
// empties. Events scheduled exactly at t are executed. The clock is left
// at t (or at the last event time if the queue emptied earlier).
func (k *Kernel) RunUntil(t Time) {
	for k.queue.Len() > 0 && k.queue[0].at <= t {
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

// eventHeap orders events by (time, sequence) so simultaneous events fire
// in scheduling order, which keeps runs reproducible.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
