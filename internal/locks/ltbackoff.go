package locks

import (
	"math"
	"slices"
	"time"

	"repro/internal/cpu"
)

// LTBMonitor implements the authors' earlier load-triggered backoff
// scheme (paper §2.3, [19]): a monitor watches process load and, on
// overload, signals randomly chosen spinning threads to sleep for an
// exponentially distributed time. The control is one-sided — sleeping
// threads cannot be woken early; they return only when their timeout
// expires (at a scheduler tick, hence the herd spikes of Figure 5).
type LTBMonitor struct {
	env *Env
	p   *cpu.Process

	// Target is the desired runnable-thread count (default: contexts).
	Target float64
	// Interval is the monitor's sampling period.
	Interval time.Duration
	// MeanSleep is the mean of the exponential sleep distribution.
	MeanSleep time.Duration

	// entries holds the waits in progress, oldest first: EndWait removes
	// its entry, so the slice never outgrows the thread count.
	entries []ltbEntry

	// Sleeps counts threads put to sleep; a health metric for tests.
	Sleeps uint64

	started bool
}

type ltbEntry struct {
	t     *cpu.Thread
	abort func() bool
}

// NewLTBMonitor creates (but does not start) a monitor for process p.
func NewLTBMonitor(env *Env, p *cpu.Process) *LTBMonitor {
	return &LTBMonitor{
		env:       env,
		p:         p,
		Target:    float64(env.M.Contexts()),
		Interval:  7 * time.Millisecond,
		MeanSleep: 10 * time.Millisecond,
	}
}

// Start launches the monitor daemon thread (real-time class, standing in
// for high-resolution timer wakeups).
func (m *LTBMonitor) Start() {
	if m.started {
		return
	}
	m.started = true
	th := m.p.NewThread("ltb-monitor", func(t *cpu.Thread) {
		lm := cpu.NewLoadMeter(m.p)
		for {
			t.IO(m.Interval) // high-resolution timer sleep
			m.env.M.ChargeAccountingRead(t, m.p)
			load := lm.Read()
			over := int(math.Round(load - m.Target))
			for i := 0; i < over; i++ {
				if !m.sleepOneSpinner() {
					break
				}
			}
		}
	})
	th.SetRealtime(true)
}

// sleepOneSpinner aborts one randomly chosen spinner's wait; the lock
// wrapper then puts it to sleep. Returns false if no victim exists.
func (m *LTBMonitor) sleepOneSpinner() bool {
	if len(m.entries) == 0 {
		return false
	}
	if m.entries[m.env.Rng.Intn(len(m.entries))].abort() {
		m.Sleeps++
		return true
	}
	return false
}

// BeginWait implements WaitManager.
func (m *LTBMonitor) BeginWait(t *cpu.Thread, abort func() bool) {
	m.entries = append(m.entries, ltbEntry{t: t, abort: abort})
}

// EndWait implements WaitManager. A thread spins on one lock at a time,
// so it has at most one entry; deleting in place keeps the others in
// arrival order, which is the order sleepOneSpinner draws from.
func (m *LTBMonitor) EndWait(t *cpu.Thread) {
	for i, e := range m.entries {
		if e.t == t {
			m.entries = slices.Delete(m.entries, i, i+1)
			return
		}
	}
}

// LoadTriggeredBackoff is the lock-side wrapper: a TP-MCS lock whose
// waiters the monitor may put to sleep.
type LoadTriggeredBackoff struct {
	env   *Env
	inner *QueueLock
	mon   *LTBMonitor
}

// NewLoadTriggeredBackoff wraps a TP-MCS lock under the given monitor.
func NewLoadTriggeredBackoff(env *Env, mon *LTBMonitor) Lock {
	return &LoadTriggeredBackoff{env: env, inner: NewTPMCS(env).(*QueueLock), mon: mon}
}

// Name implements Lock.
func (l *LoadTriggeredBackoff) Name() string { return "load-triggered-backoff" }

// Acquire implements Lock.
func (l *LoadTriggeredBackoff) Acquire(t *cpu.Thread) {
	for {
		if l.inner.AcquireManaged(t, l.mon) == WaitGranted {
			return
		}
		// Told to back off: sleep an exponential time; nobody can wake
		// us early (the scheme's fundamental weakness).
		d := l.env.Rng.Exp(l.mon.MeanSleep)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		t.Compute(l.env.Costs.ParkSyscall)
		t.Park(d)
	}
}

// Release implements Lock.
func (l *LoadTriggeredBackoff) Release(t *cpu.Thread) { l.inner.Release(t) }
