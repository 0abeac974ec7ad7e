package cpu

import (
	"repro/internal/sim"
)

// Context is one hardware context (strand). It either runs a thread, is
// switching one in, or idles.
type Context struct {
	id          int
	thread      *Thread
	last        *Thread  // previous occupant, for warm-switch cost
	switchStart sim.Time // when the in-progress dispatch began
	begin       func()   // execBegin for this context, bound once
}

// ID returns the context number.
func (c *Context) ID() int { return c.id }

// fifo is a slice-backed FIFO queue of threads.
type fifo struct {
	items []*Thread
	head  int
}

func (q *fifo) len() int { return len(q.items) - q.head }

func (q *fifo) push(t *Thread) { q.items = append(q.items, t) }

func (q *fifo) pop() *Thread {
	if q.len() == 0 {
		return nil
	}
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return t
}

// scheduler implements global-run-queue round-robin time sharing with a
// small real-time class (used by the load-control daemon, standing in
// for high-resolution-timer wakeups that Solaris honours promptly).
type scheduler struct {
	m    *Machine
	runq fifo // time-sharing class
	rtq  fifo // real-time class: always dispatched first

	// stallUntil models microstate-accounting reads serializing
	// scheduler operations: dispatches beginning before this instant
	// are delayed to it.
	stallUntil sim.Time

	// dispBusyUntil serializes dispatch operations on the global
	// dispatcher lock (Config.DispatchSerial).
	dispBusyUntil sim.Time

	// timedParked holds blocked threads with park deadlines; deadlines
	// are only honoured at scheduler ticks, like OS timeout processing.
	timedParked map[*Thread]struct{}
}

func newScheduler(m *Machine) *scheduler {
	return &scheduler{m: m, timedParked: make(map[*Thread]struct{})}
}

// startTicks arranges the periodic scheduler tick. The first tick fires
// one full period in.
func (s *scheduler) startTicks() {
	var tick func()
	tick = func() {
		s.onTick()
		s.m.K.After(s.m.Cfg.Tick, tick)
	}
	s.m.K.After(s.m.Cfg.Tick, tick)
}

// onTick processes park timeouts (all expired sleepers wake together —
// the herd behaviour behind Figure 5) and enforces quanta.
func (s *scheduler) onTick() {
	now := s.m.K.Now()
	// Wake expired timed parks. Collect first: waking mutates the set.
	var expired []*Thread
	for t := range s.timedParked {
		if t.parkDeadline <= now {
			expired = append(expired, t)
		}
	}
	// Deterministic order despite map iteration.
	sortThreadsByID(expired)
	for _, t := range expired {
		t.wakeFromPark(WakeTimeout)
	}
	// Quantum enforcement: preempt threads whose cumulative quantum
	// expired, as long as someone is waiting for a context.
	for _, c := range s.m.ctxs {
		if s.runq.len()+s.rtq.len() == 0 {
			break
		}
		t := c.thread
		if t == nil || !t.executing || !t.proc.Parked() {
			continue
		}
		if t.quantumExpired(now) {
			s.preempt(t)
		}
	}
}

func sortThreadsByID(ts []*Thread) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].id < ts[j-1].id; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// enqueue adds a runnable thread and fills any idle contexts.
func (s *scheduler) enqueue(t *Thread) {
	if t.rt {
		s.rtq.push(t)
	} else {
		s.runq.push(t)
	}
	s.kick()
	if t.state != stateRunnable || s.emptyCtx() {
		return
	}
	if t.rt {
		// No idle context took it: preempt a time-sharing thread so
		// the real-time thread runs promptly.
		s.rtPreempt()
		return
	}
	if !s.m.Cfg.DisableWakePreemption {
		// Wakeup preemption: a waking thread evicts a running thread
		// whose cumulative quantum has expired. Under overload this is
		// what catches latch holders mid-critical-section.
		s.wakePreempt()
	}
}

// emptyCtx reports whether any context is idle.
func (s *scheduler) emptyCtx() bool {
	for _, c := range s.m.ctxs {
		if c.thread == nil {
			return true
		}
	}
	return false
}

// wakePreempt evicts the executing time-sharing thread with the most
// exhausted quantum, if any has expired.
func (s *scheduler) wakePreempt() {
	now := s.m.K.Now()
	var victim *Thread
	var worst sim.Duration
	for _, c := range s.m.ctxs {
		t := c.thread
		if t == nil || !t.executing || t.rt || !t.proc.Parked() {
			continue
		}
		rem := t.timeleft - sim.Duration(now-t.sliceStart)
		if rem <= 0 && (victim == nil || rem < worst) {
			victim = t
			worst = rem
		}
	}
	if victim != nil {
		s.preempt(victim)
	}
}

// kick dispatches queued threads onto idle contexts.
func (s *scheduler) kick() {
	for _, c := range s.m.ctxs {
		if s.runq.len()+s.rtq.len() == 0 {
			return
		}
		if c.thread == nil {
			s.dispatch(c)
		}
	}
}

// rtPreempt evicts one executing time-sharing thread to make room for a
// waiting real-time thread.
func (s *scheduler) rtPreempt() {
	if s.rtq.len() == 0 {
		return
	}
	var victim *Thread
	for _, c := range s.m.ctxs {
		t := c.thread
		if t != nil && t.executing && !t.rt && t.proc.Parked() {
			// Prefer the thread with the oldest slice.
			if victim == nil || t.sliceStart < victim.sliceStart {
				victim = t
			}
		}
	}
	if victim != nil {
		s.preempt(victim)
	}
}

// pick removes the next thread to run: real-time first, then FIFO.
func (s *scheduler) pick() *Thread {
	if t := s.rtq.pop(); t != nil {
		return t
	}
	return s.runq.pop()
}

// dispatch places the next queued thread on an empty context, charging
// the switch cost before execution begins.
func (s *scheduler) dispatch(c *Context) {
	if c.thread != nil {
		return
	}
	t := s.pick()
	if t == nil {
		return
	}
	now := s.m.K.Now()
	c.thread = t
	t.ctx = c
	t.state = stateRunning
	t.executing = false
	cost := sim.Duration(s.m.Cfg.SwitchCost)
	if c.last == t {
		cost = s.m.Cfg.ResumeCost
	} else {
		s.m.Switches++
	}
	if now < s.stallUntil {
		cost += sim.Duration(s.stallUntil - now)
	}
	if serial := s.m.Cfg.DispatchSerial; serial > 0 {
		// Queue behind other in-flight dispatches on the dispatcher
		// lock, then hold it for our own serial portion.
		if s.dispBusyUntil > now {
			cost += sim.Duration(s.dispBusyUntil - now)
			s.dispBusyUntil += sim.Time(serial)
		} else {
			s.dispBusyUntil = now + sim.Time(serial)
		}
		cost += serial
	}
	c.last = t
	c.switchStart = now
	s.m.K.After(cost, c.begin)
}

// execBegin marks the switch on c complete and resumes its thread's
// code. The thread cannot leave c while switching in: it is not
// executing, so it can neither be preempted nor run its body.
func (s *scheduler) execBegin(c *Context) {
	t := c.thread
	now := s.m.K.Now()
	t.acct.WaitRun += dur(c.switchStart - t.runnableSince)
	t.acct.Other += dur(now - c.switchStart)
	t.executing = true
	t.sliceStart = now
	t.spinSegStart = now
	t.executingChanged(true)
	t.resume()
}

// preempt forcibly removes an executing thread from its context (quantum
// expiry or real-time eviction), returning it to the tail of its queue.
// The thread's goroutine stays parked; its Compute/Spin loop continues
// transparently when it is dispatched again.
func (s *scheduler) preempt(t *Thread) {
	if !t.executing || t.ctx == nil {
		panic("cpu: preempting a thread that is not executing")
	}
	if !t.proc.Parked() {
		// A thread in the middle of its (zero-virtual-time) turn cannot
		// be descheduled at this exact instant; callers must filter.
		panic("cpu: preempting a thread mid-turn")
	}
	now := s.m.K.Now()
	s.m.Preemptions++
	t.suspendActivity(now)
	t.chargeQuantum(now)
	// Involuntary preemption triggers the priority recalculation that
	// replenishes the quantum.
	t.timeleft = s.m.Cfg.Quantum
	c := t.ctx
	c.thread = nil
	t.ctx = nil
	t.executing = false
	t.state = stateRunnable
	t.runnableSince = now
	t.executingChanged(false)
	if t.rt {
		s.rtq.push(t)
	} else {
		s.runq.push(t)
	}
	s.dispatch(c)
}

// free releases a context whose thread left voluntarily and dispatches
// the next waiter.
func (s *scheduler) free(c *Context) {
	c.thread = nil
	s.dispatch(c)
}

// stall delays scheduler operations until now+d (accounting-read
// serialization).
func (s *scheduler) stall(d sim.Duration) {
	until := s.m.K.Now() + sim.Time(d)
	if until > s.stallUntil {
		s.stallUntil = until
	}
}

func dur(t sim.Time) sim.Duration {
	if t < 0 {
		return 0
	}
	return sim.Duration(t)
}
