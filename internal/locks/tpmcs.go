package locks

import (
	"repro/internal/cpu"
)

// WaitStatus is the outcome of a single TP-MCS queue wait.
type WaitStatus int

// Outcomes of TPMCS.AcquireManaged.
const (
	// WaitGranted: the caller holds the lock.
	WaitGranted WaitStatus = iota
	// WaitAborted: the caller's manager aborted the wait (e.g. it
	// claimed a sleep slot); the caller does not hold the lock.
	WaitAborted
)

// WaitManager observes a TP-MCS wait and may abort it. The load-control
// mechanism is a WaitManager: it registers spinners as descheduling
// candidates and aborts their waits when they claim sleep slots.
type WaitManager interface {
	// BeginWait is called when t starts spinning in the queue. abort
	// tries to remove t from the queue: it returns true on success,
	// after which t's SpinWait returns SpinAborted; it returns false
	// if t already owns the lock or left the queue.
	BeginWait(t *cpu.Thread, abort func() bool)
	// EndWait is called when t stops spinning for any reason.
	EndWait(t *cpu.Thread)
}

// TPMCS is a time-published MCS lock (He, Scherer, Scott — paper §2.1):
// a FIFO queue lock whose releaser skips and removes waiters that are
// currently descheduled, handing the lock only to running threads.
// Removed waiters re-enqueue when the scheduler runs them again.
//
// TP-MCS protects the queue from preempted waiters but not the critical
// section from a preempted holder — which is exactly the residual
// problem load control solves.
type TPMCS struct {
	env    *Env
	holder *cpu.Thread
	queue  []*qnode
	guard  holderGuard

	// Removals counts preempted waiters removed by releasers.
	Removals uint64
}

// NewTPMCS returns a TP-MCS lock factory.
func NewTPMCS(env *Env) Lock {
	return newTPMCS(env)
}

func newTPMCS(env *Env) *TPMCS {
	l := &TPMCS{env: env}
	l.guard = holderGuard{env: env, spinners: l.forEachSpinner}
	return l
}

// Name implements Lock.
func (l *TPMCS) Name() string { return "tp-mcs" }

func (l *TPMCS) forEachSpinner(fn func(*cpu.Thread)) {
	for _, n := range l.queue {
		if n.t.Spinning() {
			fn(n.t)
		}
	}
}

// Acquire implements Lock.
func (l *TPMCS) Acquire(t *cpu.Thread) {
	l.AcquireManaged(t, nil)
}

// AcquireManaged acquires the lock, letting mgr observe and optionally
// abort the wait. It returns WaitGranted once the lock is held, or
// WaitAborted if mgr's abort succeeded.
func (l *TPMCS) AcquireManaged(t *cpu.Thread, mgr WaitManager) WaitStatus {
	t.Compute(l.env.Costs.Acquire)
	for {
		if l.holder == nil {
			// Fast path: free lock (queue may hold only removed
			// husks, cleaned lazily).
			if l.liveQueueLen() == 0 {
				l.holder = t
				l.guard.set(t)
				return WaitGranted
			}
		}
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
			// A releaser saw us preempted and unlinked us; retry now
			// that we are running again.
			continue
		case SpinAborted:
			return WaitAborted
		default:
			panic("tp-mcs: unexpected spin result")
		}
	}
}

// liveQueueLen counts nodes still actually waiting.
func (l *TPMCS) liveQueueLen() int {
	n := 0
	for _, q := range l.queue {
		if !q.removed && !q.aborted && !q.granted {
			n++
		}
	}
	return n
}

// tryAbort removes n from the queue if it is still waiting. Called from
// the load controller's slot-claim path.
func (l *TPMCS) tryAbort(n *qnode) bool {
	if n.granted || n.removed || n.aborted {
		return false
	}
	n.aborted = true
	l.unlink(n)
	n.t.SpinWake(SpinAborted)
	return true
}

func (l *TPMCS) unlink(n *qnode) {
	for i, q := range l.queue {
		if q == n {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// Release implements Lock. The releaser walks the queue from the head,
// removing descheduled waiters, and grants to the first running one. If
// every waiter is descheduled the lock is left free and all waiters are
// removed (they re-enqueue on wakeup).
func (l *TPMCS) Release(t *cpu.Thread) {
	if l.holder != t {
		panic("tp-mcs: release by non-holder")
	}
	t.Compute(l.env.Costs.Release)
	// Ownership is retained throughout the stale-node walk: the walk
	// consumes critical-path time (TPRemoval per node), and new
	// arrivals must keep queueing behind it rather than barging.
	for len(l.queue) > 0 {
		n := l.queue[0]
		l.queue = l.queue[1:]
		if n.aborted || n.removed {
			continue // stale husk
		}
		if !n.t.OnCPU() {
			// Time-published state says this waiter is descheduled:
			// remove it rather than handing it the lock. Reading the
			// published timestamp and splicing the node is a remote
			// cache miss on the critical path — stale-node walks are
			// what erodes TP-MCS throughput under overload.
			n.removed = true
			l.Removals++
			n.t.SpinWake(SpinRemoved)
			t.Compute(l.env.Costs.TPRemoval)
			continue
		}
		n.granted = true
		l.holder = n.t
		l.guard.set(n.t)
		l.env.M.K.After(l.env.M.Cfg.HandoffDelay, func() { n.t.SpinWake(SpinGranted) })
		return
	}
	l.holder = nil
	l.guard.set(nil)
}
