package locks

import (
	"repro/internal/cpu"
)

// qnode is a waiter's queue entry, shared by MCS and TP-MCS.
type qnode struct {
	t       *cpu.Thread
	granted bool
	removed bool
	aborted bool
}

// MCS is the classic queue-based spinlock: strict FIFO handoff, each
// waiter spins on its own node. Scalable, but every queued thread is
// effectively a lock holder: releasing to a preempted waiter stalls the
// lock until that waiter is scheduled again (paper §2.1).
type MCS struct {
	env    *Env
	holder *cpu.Thread
	queue  []*qnode
	guard  holderGuard
}

// NewMCS returns an MCS lock factory.
func NewMCS(env *Env) Lock {
	l := &MCS{env: env}
	l.guard = holderGuard{env: env, spinners: l.forEachSpinner}
	return l
}

// Name implements Lock.
func (l *MCS) Name() string { return "mcs" }

func (l *MCS) forEachSpinner(fn func(*cpu.Thread)) {
	for _, n := range l.queue {
		if n.t.Spinning() {
			fn(n.t)
		}
	}
}

// Acquire implements Lock.
func (l *MCS) Acquire(t *cpu.Thread) {
	l.AcquireManaged(t, nil)
}

// AcquireManaged acquires the lock, letting mgr observe and optionally
// abort the wait — the same protocol as TPMCS.AcquireManaged, enabling
// the paper's §5.4 ablation (load control over a plain MCS lock).
func (l *MCS) AcquireManaged(t *cpu.Thread, mgr WaitManager) WaitStatus {
	t.Compute(l.env.Costs.Acquire)
	for {
		if l.holder == nil && l.liveQueueLen() == 0 {
			l.holder = t
			l.guard.set(t)
			return WaitGranted
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
			if !n.granted {
				panic("mcs: grant without node grant")
			}
			return WaitGranted
		case SpinAborted:
			return WaitAborted
		default:
			panic("mcs: unexpected spin result")
		}
	}
}

func (l *MCS) liveQueueLen() int {
	n := 0
	for _, q := range l.queue {
		if !q.aborted {
			n++
		}
	}
	return n
}

// tryAbort removes a still-waiting node (load-control slot claims).
func (l *MCS) tryAbort(n *qnode) bool {
	if n.granted || n.aborted {
		return false
	}
	n.aborted = true
	for i, q := range l.queue {
		if q == n {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	n.t.SpinWake(SpinAborted)
	return true
}

// Release implements Lock. Strict FIFO: the lock is handed to the head
// waiter even if it is preempted. The successor becomes the holder
// immediately; if it is off CPU the critical section cannot start until
// it is dispatched — the convoy mechanism.
func (l *MCS) Release(t *cpu.Thread) {
	if l.holder != t {
		panic("mcs: release by non-holder")
	}
	t.Compute(l.env.Costs.Release)
	for len(l.queue) > 0 {
		n := l.queue[0]
		l.queue = l.queue[1:]
		if n.aborted {
			continue // stale husk left by an abort
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
