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
// deterministic RNG and cost constants.
type Env struct {
	M     *cpu.Machine
	Rng   *sim.RNG
	Costs Costs
}

// NewEnv creates an Env for the machine with default costs and a
// deterministic RNG forked from the kernel's.
func NewEnv(m *cpu.Machine) *Env {
	return &Env{
		M:     m,
		Rng:   m.K.Rand().Fork(),
		Costs: DefaultCosts(),
	}
}

// holderGuard is a lock's record of its current holder (nil when the
// lock is free) and keeps the priority-inversion accounting mode of all
// its spinners up to date: a spinner's time is "contention" while the
// holder runs and "priority inversion" while the holder is descheduled
// (paper Figure 3's instrumentation). It watches its holder: a thread
// may hold several locks, and each guard is one of its watchers.
type holderGuard struct {
	holder *cpu.Thread
	// markSpinners sets the accounting mode of every spinning waiter:
	// inv is true while the holder is off CPU. Bound once by the lock.
	markSpinners func(inv bool)
}

func (g *holderGuard) set(t *cpu.Thread) {
	if g.holder != nil {
		g.holder.Unwatch(g)
	}
	g.holder = t
	if t == nil {
		g.markSpinners(false)
		return
	}
	t.Watch(g)
	g.markSpinners(!t.OnCPU())
}

// Executing implements cpu.Watcher for the holder.
func (g *holderGuard) Executing(_ *cpu.Thread, on bool) { g.markSpinners(!on) }

// markSpinner sets the correct initial accounting mode for a waiter that
// just started spinning.
func (g *holderGuard) markSpinner(t *cpu.Thread) {
	t.SetSpinPrioInv(g.holderPreempted())
}

// holderPreempted reports whether the guarded holder exists and is off
// CPU (the adaptive mutex's rule to block on arrival).
func (g *holderGuard) holderPreempted() bool {
	return g.holder != nil && !g.holder.OnCPU()
}
