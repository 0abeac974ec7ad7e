package locks

import (
	"slices"

	"repro/internal/cpu"
)

// WaitStatus is the outcome of a single queue-lock wait.
type WaitStatus int

// Outcomes of QueueLock.AcquireManaged.
const (
	// WaitGranted: the caller holds the lock.
	WaitGranted WaitStatus = iota
	// WaitAborted: the caller's manager aborted the wait (e.g. it
	// claimed a sleep slot); the caller does not hold the lock.
	WaitAborted
)

// WaitManager observes a queue-lock wait and may abort it. The
// load-control mechanism is a WaitManager: it registers spinners as
// descheduling candidates and aborts their waits when they claim sleep
// slots.
type WaitManager interface {
	// BeginWait is called when t starts spinning in the queue. abort
	// tries to remove t from the queue: it returns true on success,
	// after which t's SpinWait returns SpinAborted; it returns false
	// if t already owns the lock or left the queue.
	BeginWait(t *cpu.Thread, abort func() bool)
	// EndWait is called when t stops spinning for any reason.
	EndWait(t *cpu.Thread)
}

// QueueLock is the FIFO queue spinlock of the paper's spinning
// variants: each waiter spins on its own node, and a release hands the
// lock to a queued waiter. It comes in two variants that differ only in
// whom Release may hand the lock to:
//
//   - MCS (NewMCS): strict FIFO. Every queued thread is effectively a
//     lock holder: a release to a preempted waiter stalls the lock until
//     that waiter is scheduled again — the convoy (paper §2.1).
//   - TP-MCS (NewTPMCS), time-published MCS after He, Scherer and Scott:
//     the releaser removes waiters that are currently descheduled and
//     hands the lock only to a running one. Removed waiters re-enqueue
//     when the scheduler runs them again. This protects the queue from
//     preempted waiters but not the critical section from a preempted
//     holder — the residual problem load control solves.
//
// The queue holds only waiting nodes: Release pops every node it passes
// and an abort unlinks its own, so a free lock has an empty queue.
type QueueLock struct {
	env   *Env
	queue []*qnode
	guard holderGuard
	// timePublished makes Release skip descheduled waiters (TP-MCS).
	timePublished bool

	// Removals counts preempted waiters removed by releasers (TP-MCS).
	Removals uint64
}

// qnode is one wait of one thread: an abort that arrives after its node
// left the queue finds nothing to remove, even if the thread waits again.
type qnode struct {
	t *cpu.Thread
}

// NewMCS returns an MCS lock factory.
func NewMCS(env *Env) Lock { return newQueueLock(env, false) }

// NewTPMCS returns a TP-MCS lock factory.
func NewTPMCS(env *Env) Lock { return newQueueLock(env, true) }

func newQueueLock(env *Env, timePublished bool) *QueueLock {
	l := &QueueLock{env: env, timePublished: timePublished}
	l.guard.markSpinners = l.markSpinners
	return l
}

// Name implements Lock.
func (l *QueueLock) Name() string {
	if l.timePublished {
		return "tp-mcs"
	}
	return "mcs"
}

func (l *QueueLock) markSpinners(inv bool) {
	for _, n := range l.queue {
		if n.t.Spinning() {
			n.t.SetSpinPrioInv(inv)
		}
	}
}

// Acquire implements Lock.
func (l *QueueLock) Acquire(t *cpu.Thread) {
	l.AcquireManaged(t, nil)
}

// AcquireManaged acquires the lock, letting mgr observe and optionally
// abort the wait. It returns WaitGranted once the lock is held, or
// WaitAborted if mgr's abort succeeded. Load control manages both
// variants alike, which is the paper's §5.4 ablation.
func (l *QueueLock) AcquireManaged(t *cpu.Thread, mgr WaitManager) WaitStatus {
	t.Compute(l.env.Costs.Acquire)
	for l.guard.holder != nil {
		n := &qnode{t: t}
		l.queue = append(l.queue, n)
		l.guard.markSpinner(t)
		if mgr != nil {
			mgr.BeginWait(t, func() bool { return l.tryAbort(n) })
		}
		res := t.SpinWait()
		if mgr != nil {
			mgr.EndWait(t)
		}
		switch res {
		case SpinGranted:
			return WaitGranted
		case SpinRemoved:
			// A TP-MCS releaser saw us preempted and unlinked us;
			// retry now that we are running again.
		case SpinAborted:
			return WaitAborted
		default:
			panic(l.Name() + ": unexpected spin result")
		}
	}
	l.guard.set(t)
	return WaitGranted
}

// tryAbort removes n from the queue if it is still waiting. Called from
// the manager's abort path (load-control slot claims, backoff).
func (l *QueueLock) tryAbort(n *qnode) bool {
	i := slices.Index(l.queue, n)
	if i < 0 {
		return false // granted, removed or aborted already
	}
	l.queue = slices.Delete(l.queue, i, i+1)
	n.t.SpinWake(SpinAborted)
	return true
}

// Release implements Lock. It hands the lock to the head waiter, which
// becomes the holder at once; if it is off CPU the critical section
// cannot start until it is dispatched. TP-MCS instead removes
// descheduled waiters from the head and grants to the first running
// one; if every waiter is descheduled the lock is left free.
func (l *QueueLock) Release(t *cpu.Thread) {
	if l.guard.holder != t {
		panic(l.Name() + ": release by non-holder")
	}
	t.Compute(l.env.Costs.Release)
	// Ownership is retained throughout the stale-node walk: the walk
	// consumes critical-path time (TPRemoval per node), and new
	// arrivals must keep queueing behind it rather than barging.
	for len(l.queue) > 0 {
		n := l.queue[0]
		l.queue = l.queue[1:]
		if l.timePublished && !n.t.OnCPU() {
			// Time-published state says this waiter is descheduled:
			// remove it rather than handing it the lock. Reading the
			// published timestamp and splicing the node is a remote
			// cache miss on the critical path — stale-node walks are
			// what erodes TP-MCS throughput under overload.
			l.Removals++
			n.t.SpinWake(SpinRemoved)
			t.Compute(l.env.Costs.TPRemoval)
			continue
		}
		l.guard.set(n.t)
		l.env.M.K.After(l.env.M.Cfg.HandoffDelay, func() { n.t.SpinWake(SpinGranted) })
		return
	}
	l.guard.set(nil)
}
