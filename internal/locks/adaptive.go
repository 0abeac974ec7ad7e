package locks

import (
	"repro/internal/cpu"
)

// AdaptiveMutex models the Solaris adaptive mutex / pthread_mutex the
// paper benchmarks as "blocking" (§2.2, Figures 1 and 4): a waiter that
// arrives while the holder is off CPU blocks at once; otherwise it spins
// and blocks when its spin patience runs out. Release leaves the lock
// free and wakes one sleeper, which must retry (new arrivals can barge).
// Under load, waiters exhaust patience, every handoff takes a context
// switch, and the scheduler saturates.
type AdaptiveMutex struct {
	env   *Env
	guard holderGuard

	spinners []*cpu.Thread
	sleepers []*cpu.Thread

	// Blocks counts waiter transitions to sleeping; Handoffs counts
	// total releases. Their ratio shows the Figure 4 breakdown.
	Blocks   uint64
	Handoffs uint64
}

// NewAdaptiveMutex returns an adaptive (spin-then-block) mutex factory.
func NewAdaptiveMutex(env *Env) Lock {
	l := &AdaptiveMutex{env: env}
	l.guard.markSpinners = l.markSpinners
	return l
}

// Name implements Lock.
func (l *AdaptiveMutex) Name() string { return "adaptive-mutex" }

func (l *AdaptiveMutex) markSpinners(inv bool) {
	for _, t := range l.spinners {
		if t.Spinning() {
			t.SetSpinPrioInv(inv)
		}
	}
}

// Acquire implements Lock.
func (l *AdaptiveMutex) Acquire(t *cpu.Thread) {
	t.Compute(l.env.Costs.Acquire)
	for {
		if l.guard.holder == nil {
			l.guard.set(t)
			return
		}
		if l.guard.holderPreempted() {
			// Owner is off CPU: no point spinning, block directly.
			l.block(t)
			continue
		}
		// Spin with bounded patience while the owner runs.
		l.spinners = append(l.spinners, t)
		l.guard.markSpinner(t)
		// The patience event cannot be withdrawn: once this wait
		// ends it must not end a later one.
		waiting := true
		l.env.M.K.After(l.env.Costs.AdaptivePatience, func() {
			if waiting {
				t.SpinWake(SpinPatience)
			}
		})
		res := t.SpinWait()
		waiting = false
		l.dropSpinner(t)
		switch res {
		case SpinGranted:
			if l.guard.holder == nil {
				l.guard.set(t)
				return
			}
			// Barged past: retry.
		case SpinPatience:
			l.block(t)
		}
	}
}

// block parks the waiter until a releaser wakes it.
func (l *AdaptiveMutex) block(t *cpu.Thread) {
	l.Blocks++
	t.Compute(l.env.Costs.ParkSyscall)
	l.sleepers = append(l.sleepers, t)
	t.Park(0)
	// Woken by a release (or a stale wake): retry the acquire loop.
}

func (l *AdaptiveMutex) dropSpinner(t *cpu.Thread) {
	for i, s := range l.spinners {
		if s == t {
			l.spinners = append(l.spinners[:i], l.spinners[i+1:]...)
			return
		}
	}
}

// Release implements Lock.
func (l *AdaptiveMutex) Release(t *cpu.Thread) {
	if l.guard.holder != t {
		panic("adaptive: release by non-holder")
	}
	l.Handoffs++
	t.Compute(l.env.Costs.Release)
	// A release with sleepers goes through the slow path: the waiters
	// bit forces turnstile processing before the lock is observably
	// free, so the wake syscall sits on the lock's critical path. This
	// is the per-handoff cost that, once waiters start blocking, makes
	// every handoff slower and drives the Figure 4 breakdown.
	var woken *cpu.Thread
	if len(l.sleepers) > 0 {
		woken = l.sleepers[0]
		l.sleepers = l.sleepers[1:]
		t.Compute(l.env.Costs.UnparkSyscall)
	}
	l.guard.set(nil)
	// Signal a running spinner: it reacts in cache-miss time and
	// usually wins the race for the freed lock; the woken sleeper pays
	// two context switches, retries, and usually loses to a barging
	// spinner and blocks again — the scheduler-saturating churn.
	var onCPU []*cpu.Thread
	for _, s := range l.spinners {
		if s.Spinning() && s.OnCPU() {
			onCPU = append(onCPU, s)
		}
	}
	if len(onCPU) > 0 {
		w := onCPU[l.env.Rng.Intn(len(onCPU))]
		l.env.M.K.After(l.env.M.Cfg.HandoffDelay, func() { w.SpinWake(SpinGranted) })
	}
	if woken != nil {
		woken.Unpark()
	}
}
