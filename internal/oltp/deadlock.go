package oltp

import (
	"fmt"
	"sync"

	"repro/internal/golc/obs"
)

// DeadlockPolicy decides what a lock request does when it conflicts
// with the current holders or queued waiters of a logical lock: abort
// on the spot (avoidance) or wait and let a detector find cycles
// (detection). The lock manager routes every die-vs-wait decision and
// all waiter bookkeeping through this interface, so the two classic
// answers to deadlock can be swapped under the same lock table and
// compared on identical workloads (BenchmarkOLTPConflict{WaitDie,
// Detect}).
//
// Implementations live in this package (the methods are unexported);
// select one with NewWaitDiePolicy, NewDetectPolicy, or NewPolicy. A
// policy instance may carry per-DB state (the detector's waits-for
// graph), so never share one instance between DBs.
type DeadlockPolicy interface {
	// PolicyName is the policy's stable name ("waitdie", "detect"),
	// used by flags and /stats.
	PolicyName() string

	// shouldDie reports whether the requester must abort immediately
	// instead of waiting behind l's conflicting holders and queued
	// waiters. Called with the stripe latch held on the conflicted
	// fast path — it must not block or allocate; walk l directly and
	// short-circuit.
	shouldDie(req *Txn, l *dbLock, goal Mode) bool

	// onBlocked is called after w has been enqueued and the stripe
	// latch released, with the blockers observed at enqueue time. It
	// may abort waiters — including w itself — by cancelling their
	// wait contexts (waiter.cancel); the victim's own goroutine then
	// dequeues itself and reports AbortDeadlock, unless a grant won
	// the race (in which case the cancellation is a no-op).
	onBlocked(lm *lockManager, req *Txn, id ResourceID, w *waiter, blockers []*Txn)

	// onWake is called exactly once per onBlocked, on req's own
	// goroutine, after the wait ends (granted, aborted, or timed out).
	onWake(req *Txn)
}

// NewPolicy returns a fresh policy instance by name.
func NewPolicy(name string) (DeadlockPolicy, error) {
	switch name {
	case "waitdie", "wait-die":
		return NewWaitDiePolicy(), nil
	case "detect", "detector":
		return NewDetectPolicy(), nil
	default:
		return nil, fmt.Errorf("oltp: unknown deadlock policy %q (want waitdie or detect)", name)
	}
}

// waitDiePolicy is deadlock avoidance on begin-timestamps: a requester
// younger (larger tid) than any conflicting holder or queued waiter
// aborts immediately; older requesters wait. Every wait edge therefore
// points old→young, so cycles can never form and no graph is kept.
type waitDiePolicy struct{}

// NewWaitDiePolicy returns the wait-die avoidance policy (the
// default). It is stateless, but treat instances as per-DB anyway.
func NewWaitDiePolicy() DeadlockPolicy { return waitDiePolicy{} }

func (waitDiePolicy) PolicyName() string { return "waitdie" }

func (waitDiePolicy) shouldDie(req *Txn, l *dbLock, goal Mode) bool {
	for _, h := range l.holders {
		if h.txn != req && !compat[h.mode][goal] && req.tid > h.txn.tid {
			return true
		}
	}
	// Slot holders are holders too: the identity is what the age test
	// needs, and a slot carries it.
	for t, m := range l.in.holders() {
		if t != req && !compat[m][goal] && req.tid > t.tid {
			return true
		}
	}
	for _, w := range l.waiters {
		if w.txn != req && !compat[w.mode][goal] && req.tid > w.txn.tid {
			return true
		}
	}
	return false
}

func (waitDiePolicy) onBlocked(*lockManager, *Txn, ResourceID, *waiter, []*Txn) {}
func (waitDiePolicy) onWake(*Txn)                                               {}

// detectPolicy is deadlock detection over an explicit waits-for graph:
// every conflicting request waits (no age test), recording edges to
// its blockers when it parks; the requester then runs a cycle check
// on-block and the youngest transaction in any cycle found is aborted
// (counted in Metrics.DetectedAborts). The victim may be the requester
// itself or a transaction parked on some other stripe — the latter is
// woken with an AbortDeadlock by cancelling its wait context.
//
// The on-block edge set — conflicting holders, named or in a node's
// slots, plus conflicting queued waiters — is complete for this FIFO
// lock manager: a transaction can only ever come to block w if it
// already held or was already queued on the lock when w parked (grant
// promotes strictly in queue order, later arrivals queue behind w, a
// coarse w keeps its node's gate up so no new slot hold can land, and
// strict 2PL means holders never return once they release), so no
// deadlock escapes the on-block check. Edges can only go stale in the
// benign direction (a granted waiter's edges linger until its onWake; a
// slot claim that backs out from the gate may be seen for a moment),
// which can at worst abort a victim spuriously, never miss a cycle. The
// bounded-wait timeout stays as a backstop tripwire all the same.
type detectPolicy struct {
	mu      sync.Mutex
	edges   map[*Txn]map[*Txn]struct{} // waiter → its blockers
	waiting map[*Txn]*waiter           // each blocked txn's cancellation route
}

// NewDetectPolicy returns a waits-for-graph deadlock detector. The
// graph is per-instance state: never share one across DBs.
func NewDetectPolicy() DeadlockPolicy {
	return &detectPolicy{
		edges:   make(map[*Txn]map[*Txn]struct{}),
		waiting: make(map[*Txn]*waiter),
	}
}

func (*detectPolicy) PolicyName() string { return "detect" }

// shouldDie never fires: under detection every conflict waits.
func (*detectPolicy) shouldDie(*Txn, *dbLock, Mode) bool { return false }

func (p *detectPolicy) onBlocked(lm *lockManager, req *Txn, id ResourceID, w *waiter, blockers []*Txn) {
	p.mu.Lock()
	es := p.edges[req]
	if es == nil {
		es = make(map[*Txn]struct{}, len(blockers))
		p.edges[req] = es
	}
	for _, b := range blockers {
		es[b] = struct{}{}
	}
	p.waiting[req] = w
	// The graph was acyclic before this block (every earlier block ran
	// this same check), so any cycle passes through req. Kill victims
	// until none remain: one block can close several cycles at once.
	for {
		cyc := p.cycleThrough(req)
		if cyc == nil {
			break
		}
		victim := cyc[0]
		for _, t := range cyc[1:] {
			if t.tid > victim.tid {
				victim = t
			}
		}
		// Remove the victim from the graph before cancelling so the
		// next iteration (and concurrent blockers) see the cycle as
		// already broken; its own onWake removal is then a no-op.
		vw, parked := p.waiting[victim]
		delete(p.edges, victim)
		delete(p.waiting, victim)
		if !parked {
			// The victim woke between edge recording and now; dropping
			// its stale edges broke the cycle. Re-check.
			continue
		}
		// The kill order is just a context cancellation: the victim's
		// own goroutine dequeues itself and reports AbortDeadlock (or
		// keeps a grant that raced in — then the cycle is broken by
		// the grant instead). No latch is taken here, so the graph
		// mutex can stay held throughout.
		vw.cancel()
		// Flight-recorder mark: the resource whose block closed the
		// cycle, and which transaction was sacrificed.
		lm.rec.Event(obs.EvDeadlockVictim, id.String(), "", int64(victim.tid))
		if victim == req {
			// Our own wait is cancelled and our edges are gone; no
			// further cycle can involve us.
			break
		}
	}
	p.mu.Unlock()
}

// cycleThrough returns the transactions on some cycle through start,
// or nil. Caller holds p.mu.
func (p *detectPolicy) cycleThrough(start *Txn) []*Txn {
	seen := make(map[*Txn]bool)
	var path []*Txn
	var dfs func(t *Txn) []*Txn
	dfs = func(t *Txn) []*Txn {
		if seen[t] {
			return nil
		}
		seen[t] = true
		path = append(path, t)
		for next := range p.edges[t] {
			if next == start {
				cyc := make([]*Txn, len(path))
				copy(cyc, path)
				return cyc
			}
			if c := dfs(next); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		return nil
	}
	return dfs(start)
}

func (p *detectPolicy) onWake(req *Txn) {
	p.mu.Lock()
	delete(p.edges, req)
	delete(p.waiting, req)
	p.mu.Unlock()
}
