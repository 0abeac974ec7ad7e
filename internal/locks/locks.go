// Package locks implements the synchronization primitives the paper's
// figures compare, as event-driven equivalents running on the simulated
// machine: the MCS queue lock and its time-published variant (TP-MCS),
// the Solaris-style adaptive (spin-then-block) mutex the paper
// benchmarks as pthread, and the authors' earlier load-triggered backoff
// scheme (paper §2.3).
//
// All locks implement mutual exclusion over simulated threads; the
// differences the paper cares about — how waiters wait, who is woken on
// release, and what happens when lock holders or waiters are preempted —
// are modelled explicitly.
package locks

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Spin results delivered through cpu.Thread.SpinWake. Exported so the
// load-control package can cooperate with TP-MCS.
const (
	// SpinGranted: the lock was handed to this waiter.
	SpinGranted = 1
	// SpinRemoved: a TP-MCS releaser removed this preempted waiter
	// from the queue; it must re-enqueue.
	SpinRemoved = 2
	// SpinAborted: the waiter's own abort (load-control slot claim)
	// succeeded; it left the queue voluntarily.
	SpinAborted = 3
	// SpinPatience: adaptive mutex: spin patience exhausted, block.
	SpinPatience = 4
)

// Lock is a mutual-exclusion primitive for simulated threads.
type Lock interface {
	// Acquire blocks (by spinning, parking, or both) until the calling
	// thread holds the lock.
	Acquire(t *cpu.Thread)
	// Release transfers or frees the lock. Must be called by the
	// current holder.
	Release(t *cpu.Thread)
	// Name identifies the algorithm for reports.
	Name() string
}

// Factory builds a lock bound to an Env. Workloads take factories so a
// whole benchmark can be re-run under a different primitive.
type Factory func(env *Env) Lock

// Costs holds the low-level overhead constants shared by all lock
// implementations.
type Costs struct {
	// Acquire and Release are the uncontended critical-path costs (the
	// paper: an uncontended mutex acquire can take as long as a short
	// critical section).
	Acquire time.Duration
	Release time.Duration
	// ParkSyscall and UnparkSyscall are the user/kernel crossing costs
	// of blocking, charged in addition to the scheduler's context
	// switch cost.
	ParkSyscall   time.Duration
	UnparkSyscall time.Duration
	// AdaptivePatience is how long an adaptive-mutex waiter spins
	// before giving up and blocking even though the holder runs.
	AdaptivePatience time.Duration
	// TPRemoval is the critical-path cost a TP-MCS releaser pays per
	// preempted waiter it inspects and unlinks (a timestamp read —
	// a remote cache miss — plus the queue splice). This is why "a few
	// extra threads add 50-100% to execution time" even with TP-MCS
	// (paper §2.1): overloaded queues fill with stale nodes that every
	// handoff must walk over.
	TPRemoval time.Duration
}

// DefaultCosts returns constants calibrated to the paper's platform
// descriptions (§2, §4).
func DefaultCosts() Costs {
	return Costs{
		Acquire:          80 * time.Nanosecond,
		Release:          60 * time.Nanosecond,
		ParkSyscall:      1500 * time.Nanosecond,
		UnparkSyscall:    1500 * time.Nanosecond,
		AdaptivePatience: 1500 * time.Nanosecond,
		TPRemoval:        350 * time.Nanosecond,
	}
}

// Env is the shared context lock instances need: the machine, a
// deterministic RNG, cost constants, and the per-thread hook dispatcher
// that lets multiple locks watch scheduling transitions of one thread
// (a thread may hold several latches at once).
type Env struct {
	M     *cpu.Machine
	Rng   *sim.RNG
	Costs Costs

	watches map[*cpu.Thread]*threadWatch
}

// NewEnv creates an Env for the machine with default costs and a
// deterministic RNG forked from the kernel's.
func NewEnv(m *cpu.Machine) *Env {
	return &Env{
		M:       m,
		Rng:     m.K.Rand().Fork(),
		Costs:   DefaultCosts(),
		watches: make(map[*cpu.Thread]*threadWatch),
	}
}

// threadWatch fans a thread's two hook slots out to any number of
// registered watchers.
type threadWatch struct {
	entries []*watchEntry
}

type watchEntry struct {
	onDeschedule func(*cpu.Thread)
	onSchedule   func(*cpu.Thread)
	dead         bool
}

// Watch registers scheduling-transition callbacks for t and returns a
// cancel function. Callbacks run inside the event loop.
func (e *Env) Watch(t *cpu.Thread, onDeschedule, onSchedule func(*cpu.Thread)) (cancel func()) {
	w := e.watches[t]
	if w == nil {
		w = &threadWatch{}
		e.watches[t] = w
		t.SetHooks(
			func(th *cpu.Thread) { w.dispatch(th, true) },
			func(th *cpu.Thread) { w.dispatch(th, false) },
		)
	}
	entry := &watchEntry{onDeschedule: onDeschedule, onSchedule: onSchedule}
	w.entries = append(w.entries, entry)
	return func() { entry.dead = true }
}

func (w *threadWatch) dispatch(t *cpu.Thread, desched bool) {
	// Compact dead entries lazily while dispatching.
	live := w.entries[:0]
	for _, en := range w.entries {
		if en.dead {
			continue
		}
		live = append(live, en)
		if desched {
			if en.onDeschedule != nil {
				en.onDeschedule(t)
			}
		} else if en.onSchedule != nil {
			en.onSchedule(t)
		}
	}
	w.entries = live
}

// holderGuard is a lock's record of its current holder (nil when the
// lock is free) and keeps the priority-inversion accounting mode of all
// its spinners up to date: a spinner's time is "contention" while the
// holder runs and "priority inversion" while the holder is descheduled
// (paper Figure 3's instrumentation).
type holderGuard struct {
	env    *Env
	holder *cpu.Thread
	cancel func()
	// spinners must return the current set of spinning waiters.
	spinners func(func(*cpu.Thread))
}

func (g *holderGuard) set(t *cpu.Thread) {
	if g.cancel != nil {
		g.cancel()
		g.cancel = nil
	}
	g.holder = t
	if t == nil {
		g.broadcast(false)
		return
	}
	g.cancel = g.env.Watch(t,
		func(*cpu.Thread) { g.broadcast(true) },
		func(*cpu.Thread) { g.broadcast(false) },
	)
	g.broadcast(!t.OnCPU())
}

func (g *holderGuard) broadcast(inv bool) {
	if g.spinners == nil {
		return
	}
	g.spinners(func(s *cpu.Thread) { s.SetSpinPrioInv(inv) })
}

// markSpinner sets the correct initial accounting mode for a waiter that
// just started spinning.
func (g *holderGuard) markSpinner(t *cpu.Thread) {
	t.SetSpinPrioInv(g.holder != nil && !g.holder.OnCPU())
}

// holderPreempted reports whether the guarded holder exists and is off
// CPU (the adaptive mutex's rule to block on arrival).
func (g *holderGuard) holderPreempted() bool {
	return g.holder != nil && !g.holder.OnCPU()
}
