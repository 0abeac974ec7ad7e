package core

import (
	"repro/internal/cpu"
	"repro/internal/locks"
)

// LCLock is the application-visible load-controlled spinlock (paper
// §3.1.2): a TP-MCS lock whose spinners cooperate with the controller's
// sleep slot buffer. While a thread polls for the lock handoff it also
// watches for open sleep slots; if it claims one it leaves the queue,
// sleeps until the controller wakes it or 100ms pass, and then restarts
// its acquire as if it had just arrived.
type LCLock struct {
	inner *locks.QueueLock
	name  string
	ctl   *Controller
}

// NewLCLock builds a load-controlled lock over TP-MCS attached to ctl.
func NewLCLock(env *locks.Env, ctl *Controller) *LCLock {
	return NewLCLockOver(locks.NewTPMCS(env).(*locks.QueueLock), ctl)
}

// NewLCLockOver wraps an explicit queue lock: TP-MCS is the paper's
// choice, and plain MCS is the §5.4 ablation showing load control makes
// preemption resistance almost redundant.
func NewLCLockOver(inner *locks.QueueLock, ctl *Controller) *LCLock {
	return &LCLock{inner: inner, name: "load-control(" + inner.Name() + ")", ctl: ctl}
}

// Factory returns a locks.Factory producing LCLocks bound to ctl, so
// workloads parameterized over lock factories can run under load
// control unchanged.
func Factory(ctl *Controller) locks.Factory {
	return func(env *locks.Env) locks.Lock { return NewLCLock(env, ctl) }
}

// FactoryOverMCS returns a factory building load control over plain MCS
// (the §5.4 ablation).
func FactoryOverMCS(ctl *Controller) locks.Factory {
	return func(env *locks.Env) locks.Lock {
		return NewLCLockOver(locks.NewMCS(env).(*locks.QueueLock), ctl)
	}
}

// Name implements locks.Lock.
func (l *LCLock) Name() string { return l.name }

// Acquire implements locks.Lock.
func (l *LCLock) Acquire(t *cpu.Thread) {
	reg := l.ctl.Registry()
	for {
		status := l.inner.AcquireManaged(t, reg)
		if status == locks.WaitGranted {
			// A slot claim may have raced with the grant and lost;
			// if we still own a slot record, surrender it.
			if idx, ok := reg.ClaimedSlot(t); ok {
				l.ctl.Buffer.Leave(idx, t)
			}
			return
		}
		// Aborted: we claimed a sleep slot. Sleep, then retry from
		// scratch.
		idx, ok := reg.ClaimedSlot(t)
		if !ok {
			// Defensive: aborted without a slot (should not happen).
			continue
		}
		l.ctl.SleepInSlot(t, idx)
	}
}

// Release implements locks.Lock.
func (l *LCLock) Release(t *cpu.Thread) { l.inner.Release(t) }
