package core

import (
	"math"
	"time"

	"repro/internal/cpu"
)

// Options configures a load Controller.
type Options struct {
	// Interval is the controller's update period. The paper settles on
	// 7ms: long enough to amortize the accounting syscall, short
	// enough to track load, and out of phase with the 10ms OS tick
	// (Figure 10).
	Interval time.Duration

	// SleepTimeout bounds how long a thread sleeps in a slot without a
	// controller wake (paper: 100ms, roughly ten scheduler slices).
	SleepTimeout time.Duration

	// DisableSensor turns off load measurement; the target is then
	// driven externally via ForceTarget (used by the Figure 8 bump
	// test).
	DisableSensor bool

	// Filter, when non-nil, post-processes raw load measurements
	// (§6.2.1 control-theory extensions plug in here).
	Filter func(raw float64) float64

	// Policy, when non-nil, replaces the default sleep-target policy.
	// It receives the (filtered) measured load, the current sleeper
	// count and the desired runnable count (the machine's hardware
	// context count), and returns the new sleep target. §6.2.1's PID variant plugs in here.
	Policy func(load float64, sleeping, targetLoad int) int
}

const (
	// bufferCap is the physical sleep-slot array size.
	bufferCap = 4096
	// claimDelay is how long a spinning thread takes to notice an open
	// slot and CAS into it.
	claimDelay = 500 * time.Nanosecond
)

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 7 * time.Millisecond
	}
	if o.SleepTimeout == 0 {
		o.SleepTimeout = 100 * time.Millisecond
	}
	return o
}

// Controller is the load-control daemon (paper §3.1.1). It belongs to
// one process; its scheduling decisions are global across all of that
// process's load-controlled locks — the key difference from per-lock
// blocking decisions.
type Controller struct {
	m    *cpu.Machine
	p    *cpu.Process
	opts Options

	Buffer   *SlotBuffer
	registry *registry

	meter   *cpu.LoadMeter
	started bool
	stopped bool

	// Updates counts controller cycles; LastLoad is the most recent
	// measurement (after filtering).
	Updates  uint64
	LastLoad float64
}

// NewController creates a controller for process p. Call Start to launch
// the daemon thread.
func NewController(p *cpu.Process, opts Options) *Controller {
	c := &Controller{
		m:      p.Machine(),
		p:      p,
		opts:   opts.withDefaults(),
		Buffer: NewSlotBuffer(bufferCap),
	}
	c.registry = newRegistry(c)
	return c
}

// Start launches the controller daemon in the controlled process. The
// daemon runs in the real-time class, standing in for the prompt
// high-resolution-timer wakeups the paper relies on.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	th := c.p.NewThread("load-controller", func(t *cpu.Thread) {
		c.meter = cpu.NewLoadMeter(c.p)
		for !c.stopped {
			t.IO(c.opts.Interval) // high-resolution timer sleep
			if c.stopped {
				return
			}
			if !c.opts.DisableSensor {
				c.update(t)
			}
		}
	})
	th.SetRealtime(true)
}

// Stop makes the daemon exit at its next wakeup.
func (c *Controller) Stop() { c.stopped = true }

// update is one controller cycle: measure, retarget, wake or invite.
func (c *Controller) update(t *cpu.Thread) {
	// Microstate read: pays the per-thread-linear cost and serializes
	// scheduler operations for its duration (paper §5.3, §6.2.2).
	c.m.ChargeAccountingRead(t, c.p)
	raw := c.meter.Read()
	if c.opts.Filter != nil {
		raw = c.opts.Filter(raw)
	}
	c.LastLoad = raw
	c.Updates++
	var target int
	if c.opts.Policy != nil {
		target = c.opts.Policy(raw, c.Buffer.Sleeping(), c.m.Contexts())
	} else {
		// Runnable + already-sleeping is the load the process would
		// offer if no one slept; the excess over the hardware context
		// count is the sleep target. (The daemon itself sleeps through
		// almost the whole interval, so its own contribution to the
		// measurement is negligible.)
		offered := raw + float64(c.Buffer.Sleeping())
		target = int(math.Round(offered)) - c.m.Contexts()
	}
	c.setTarget(target)
}

// ForceTarget drives the sleep target directly (bump test, Figure 8).
func (c *Controller) ForceTarget(target int) { c.setTarget(target) }

// setTarget applies a new sleep target: shrinking wakes surplus sleepers
// immediately; growing opens slots that spinning threads will claim.
func (c *Controller) setTarget(target int) {
	if target < 0 {
		target = 0
	}
	if target > len(c.Buffer.slots) {
		target = len(c.Buffer.slots)
	}
	c.Buffer.T = target
	for c.Buffer.Sleeping() > c.Buffer.T {
		sleeper := c.Buffer.WakeOne()
		if sleeper == nil {
			break
		}
		// Clearing the slot and unparking: the sleeper re-enters the
		// system immediately (in contrast to load-triggered backoff's
		// timeout-only wakes).
		sleeper.Unpark()
	}
	c.registry.offer()
}

// SleepInSlot is the claimant's sleep path (paper Figure 7, right): it
// re-checks its slot (the controller may have cleared it before we ever
// parked), parks for at most SleepTimeout, then retires from the buffer.
func (c *Controller) SleepInSlot(t *cpu.Thread, idx int) {
	t.Compute(1500 * time.Nanosecond) // lwp_park syscall overhead
	if !c.Buffer.SlotHolds(idx, t) {
		// Controller cleared us before we slept: leave immediately.
		c.Buffer.Leave(idx, t)
		return
	}
	t.Park(c.opts.SleepTimeout)
	c.Buffer.Leave(idx, t)
}

// Registry exposes the WaitManager that load-controlled locks pass to
// QueueLock.AcquireManaged.
func (c *Controller) Registry() *registry { return c.registry }

// registry tracks the process's current spinners so open sleep slots can
// be offered to a random subset (paper: "notifying a random subset of
// spinning threads to block").
type registry struct {
	c       *Controller
	entries []*regEntry
	claimed map[*cpu.Thread]int
	pending int // claims scheduled but not yet executed
}

type regEntry struct {
	t     *cpu.Thread
	abort func() bool
	dead  bool
}

func newRegistry(c *Controller) *registry {
	return &registry{c: c, claimed: make(map[*cpu.Thread]int)}
}

// BeginWait implements locks.WaitManager.
func (r *registry) BeginWait(t *cpu.Thread, abort func() bool) {
	r.entries = append(r.entries, &regEntry{t: t, abort: abort})
	r.offer()
}

// EndWait implements locks.WaitManager.
func (r *registry) EndWait(t *cpu.Thread) {
	for _, e := range r.entries {
		if e.t == t && !e.dead {
			e.dead = true
		}
	}
}

// ClaimedSlot returns and forgets the slot index t claimed, if any.
func (r *registry) ClaimedSlot(t *cpu.Thread) (int, bool) {
	idx, ok := r.claimed[t]
	if ok {
		delete(r.claimed, t)
	}
	return idx, ok
}

// offer schedules slot claims for random spinners while openings remain.
// Each claim lands after claimDelay, modelling the spinner noticing the
// open slot during its unrolled polling loop (paper §3.2.3).
func (r *registry) offer() {
	r.compact()
	for r.c.Buffer.Openings()-r.pending > 0 && r.pending < len(r.entries) {
		r.pending++
		r.c.m.K.After(claimDelay, r.claimOne)
	}
}

// claimOne executes one scheduled claim: pick a random live spinner,
// CAS it into the buffer, then abort its queue wait.
func (r *registry) claimOne() {
	r.pending--
	r.compact()
	if len(r.entries) == 0 || r.c.Buffer.Openings() <= 0 {
		return
	}
	e := r.entries[r.c.m.K.Rand().Intn(len(r.entries))]
	idx, ok := r.c.Buffer.TryClaim(e.t)
	if !ok {
		return
	}
	if e.abort() {
		r.claimed[e.t] = idx
		return
	}
	// The lock was granted between the claim and the abort: per the
	// paper, clear the slot and enter the critical section.
	r.c.Buffer.Leave(idx, e.t)
}

func (r *registry) compact() {
	live := r.entries[:0]
	for _, e := range r.entries {
		if !e.dead {
			live = append(live, e)
		}
	}
	r.entries = live
}
