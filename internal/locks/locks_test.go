package locks

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// harness runs n threads that repeatedly acquire a single lock, hold it
// for csLen, and think for delay, checking mutual exclusion throughout.
type harness struct {
	k   *sim.Kernel
	m   *cpu.Machine
	p   *cpu.Process
	env *Env

	inCS     int
	maxInCS  int
	acquires int
}

func newHarness(seed uint64, contexts int) *harness {
	k := sim.NewKernel(seed)
	m := cpu.NewMachine(k, cpu.Config{Contexts: contexts})
	p := m.NewProcess("bench")
	return &harness{k: k, m: m, p: p, env: NewEnv(m)}
}

// run starts n worker threads on lock l and simulates for dur.
func (h *harness) run(l Lock, n int, csLen, delay, dur time.Duration) {
	for i := 0; i < n; i++ {
		rng := h.k.Rand().Fork()
		h.p.NewThread(fmt.Sprintf("w%d", i), func(t *cpu.Thread) {
			for {
				l.Acquire(t)
				h.inCS++
				if h.inCS > h.maxInCS {
					h.maxInCS = h.inCS
				}
				h.acquires++
				t.Compute(csLen)
				h.inCS--
				l.Release(t)
				t.Compute(delay + time.Duration(rng.Intn(1000)))
			}
		})
	}
	h.k.RunFor(dur)
}

var allFactories = []struct {
	name string
	f    Factory
}{
	{"mcs", NewMCS},
	{"tp-mcs", NewTPMCS},
	{"adaptive", NewAdaptiveMutex},
}

func TestMutualExclusionAllLocks(t *testing.T) {
	for _, tc := range allFactories {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(7, 4)
			l := tc.f(h.env)
			h.run(l, 8, 2*time.Microsecond, 5*time.Microsecond, 50*time.Millisecond)
			if h.maxInCS != 1 {
				t.Fatalf("%s: %d threads in critical section at once", l.Name(), h.maxInCS)
			}
			if h.acquires == 0 {
				t.Fatalf("%s: no acquires completed", l.Name())
			}
		})
	}
}

func TestMutualExclusionUnderOverload(t *testing.T) {
	// More threads than contexts: preemption hits lock holders and
	// spinners; exclusion must still hold and progress continue.
	for _, tc := range allFactories {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(11, 2)
			l := tc.f(h.env)
			h.run(l, 6, 3*time.Microsecond, 10*time.Microsecond, 80*time.Millisecond)
			if h.maxInCS != 1 {
				t.Fatalf("%s: exclusion violated under overload", l.Name())
			}
			if h.acquires < 100 {
				t.Fatalf("%s: only %d acquires under overload (livelock?)", l.Name(), h.acquires)
			}
		})
	}
}

func TestUncontendedAcquireIsCheap(t *testing.T) {
	for _, tc := range allFactories {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(3, 4)
			l := tc.f(h.env)
			var elapsed time.Duration
			h.p.NewThread("solo", func(th *cpu.Thread) {
				th.Compute(time.Microsecond)
				start := h.k.Now()
				for i := 0; i < 100; i++ {
					l.Acquire(th)
					l.Release(th)
				}
				elapsed = time.Duration(h.k.Now() - start)
			})
			h.k.RunFor(time.Second)
			// 100 uncontended pairs must cost well under a context
			// switch each.
			if elapsed > 100*5*time.Microsecond {
				t.Fatalf("%s: uncontended 100 pairs took %v", l.Name(), elapsed)
			}
		})
	}
}

func TestFIFOOrderMCS(t *testing.T) {
	// With ample contexts (no preemption), MCS must grant in arrival
	// order.
	h := newHarness(5, 16)
	l := NewMCS(h.env)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		h.p.NewThread(fmt.Sprintf("w%d", i), func(t *cpu.Thread) {
			// Stagger arrivals deterministically.
			t.Compute(time.Duration(i+1) * 10 * time.Microsecond)
			l.Acquire(t)
			order = append(order, i)
			t.Compute(100 * time.Microsecond)
			l.Release(t)
		})
	}
	h.k.RunFor(100 * time.Millisecond)
	if len(order) != 6 {
		t.Fatalf("only %d acquires", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

// TestTPMCSRemovesPreemptedWaiters runs one schedule on both queue-lock
// variants: a hog preempts the spinning waiter before the holder
// releases. TP-MCS's releaser must remove the descheduled waiter, which
// re-enqueues and still acquires; MCS must hand it the lock in FIFO
// order and remove nobody.
func TestTPMCSRemovesPreemptedWaiters(t *testing.T) {
	for _, tc := range []struct {
		name          string
		timePublished bool
	}{{"tp-mcs", true}, {"mcs", false}} {
		t.Run(tc.name, func(t *testing.T) {
			// 2 contexts: the waiter spins on the second one beside
			// the holder until a CPU hog preempts it at a tick.
			k := sim.NewKernel(13)
			m := cpu.NewMachine(k, cpu.Config{Contexts: 2})
			p := m.NewProcess("p")
			env := NewEnv(m)
			l := newQueueLock(env, tc.timePublished)
			// Holder takes the lock and holds it a long time.
			p.NewThread("holder", func(t *cpu.Thread) {
				l.Acquire(t)
				t.Compute(35 * time.Millisecond)
				l.Release(t)
				t.Compute(50 * time.Millisecond)
			})
			acquired := false
			p.NewThread("waiter", func(t *cpu.Thread) {
				t.Compute(time.Millisecond)
				l.Acquire(t)
				acquired = true
				t.Compute(time.Microsecond)
				l.Release(t)
			})
			p.NewThread("hog", func(t *cpu.Thread) {
				t.Compute(2 * time.Millisecond) // arrive second on ctx queue
				t.Compute(60 * time.Millisecond)
			})
			k.RunFor(200 * time.Millisecond)
			if tc.timePublished && l.Removals == 0 {
				t.Fatal("TP-MCS never removed a preempted waiter")
			}
			if !tc.timePublished && l.Removals != 0 {
				t.Fatalf("MCS removed %d waiters; its release must hand off in FIFO order", l.Removals)
			}
			if !acquired {
				t.Fatal("waiter never acquired")
			}
		})
	}
}

func TestAdaptiveMutexBlocksWhenHolderPreempted(t *testing.T) {
	k := sim.NewKernel(17)
	m := cpu.NewMachine(k, cpu.Config{Contexts: 1})
	p := m.NewProcess("p")
	env := NewEnv(m)
	l := NewAdaptiveMutex(env).(*AdaptiveMutex)
	got := false
	p.NewThread("holder", func(t *cpu.Thread) {
		l.Acquire(t)
		t.Compute(40 * time.Millisecond) // will be preempted at ticks
		l.Release(t)
	})
	p.NewThread("waiter", func(t *cpu.Thread) {
		t.Compute(time.Millisecond)
		l.Acquire(t)
		got = true
		l.Release(t)
	})
	k.RunFor(300 * time.Millisecond)
	if !got {
		t.Fatal("waiter never acquired")
	}
	if l.Blocks == 0 {
		t.Fatal("adaptive mutex never blocked despite preempted holder")
	}
}

func TestAdaptivePatienceExhaustion(t *testing.T) {
	// Holder stays on CPU but holds the lock much longer than the
	// patience window: the waiter must block rather than spin forever.
	k := sim.NewKernel(19)
	m := cpu.NewMachine(k, cpu.Config{Contexts: 4})
	p := m.NewProcess("p")
	env := NewEnv(m)
	l := NewAdaptiveMutex(env).(*AdaptiveMutex)
	p.NewThread("holder", func(t *cpu.Thread) {
		l.Acquire(t)
		t.Compute(5 * time.Millisecond)
		l.Release(t)
	})
	p.NewThread("waiter", func(t *cpu.Thread) {
		t.Compute(100 * time.Microsecond)
		l.Acquire(t)
		l.Release(t)
	})
	k.RunFor(100 * time.Millisecond)
	if l.Blocks == 0 {
		t.Fatal("waiter spun through a 5ms hold without blocking")
	}
	acct := p.Acct()
	if acct.SpinContention > time.Millisecond {
		t.Fatalf("waiter spun %v, patience should cap it near %v",
			acct.SpinContention, env.Costs.AdaptivePatience)
	}
}

func TestSpinAccountingSplitsContentionAndInversion(t *testing.T) {
	// 2 contexts: holder on ctx0 (long critical section), spinner on
	// ctx1. At 5ms a real-time thread evicts the holder (it has the
	// oldest slice), so the spinner keeps spinning while the holder is
	// off CPU — priority inversion by the paper's definition.
	k := sim.NewKernel(23)
	m := cpu.NewMachine(k, cpu.Config{Contexts: 2})
	p := m.NewProcess("p")
	env := NewEnv(m)
	l := newQueueLock(env, true)
	p.NewThread("holder", func(t *cpu.Thread) {
		l.Acquire(t)
		t.Compute(40 * time.Millisecond)
		l.Release(t)
	})
	spinner := p.NewThread("spinner", func(t *cpu.Thread) {
		t.Compute(time.Millisecond)
		l.Acquire(t)
		l.Release(t)
	})
	k.After(5*time.Millisecond, func() {
		rt := p.NewThread("evictor", func(t *cpu.Thread) {
			t.Compute(4 * time.Millisecond)
		})
		rt.SetRealtime(true)
	})
	k.RunFor(4 * time.Millisecond)
	pre := spinner.Acct()
	if pre.SpinContention == 0 {
		t.Fatal("no contention spin recorded while holder on CPU")
	}
	if pre.SpinPrioInv != 0 {
		t.Fatalf("inversion recorded too early: %+v", pre)
	}
	k.RunFor(4 * time.Millisecond) // inside the eviction window
	post := spinner.Acct()
	if post.SpinPrioInv < 2*time.Millisecond {
		t.Fatalf("SpinPrioInv = %v, want >= 2ms while holder evicted", post.SpinPrioInv)
	}
}

func TestLoadTriggeredBackoffSheds(t *testing.T) {
	k := sim.NewKernel(37)
	m := cpu.NewMachine(k, cpu.Config{Contexts: 4})
	p := m.NewProcess("p")
	env := NewEnv(m)
	mon := NewLTBMonitor(env, p)
	mon.Target = 4
	mon.Start()
	l := NewLoadTriggeredBackoff(env, mon)
	acquires := 0
	for i := 0; i < 10; i++ {
		p.NewThread(fmt.Sprintf("w%d", i), func(t *cpu.Thread) {
			for {
				l.Acquire(t)
				acquires++
				t.Compute(2 * time.Microsecond)
				l.Release(t)
				t.Compute(3 * time.Microsecond)
			}
		})
	}
	k.RunFor(300 * time.Millisecond)
	if mon.Sleeps == 0 {
		t.Fatal("monitor never put a spinner to sleep despite 250% load")
	}
	if acquires == 0 {
		t.Fatal("no progress")
	}
}

// TestLTBMonitorEntriesBounded: below the load target the monitor never
// picks a victim, so ended waits must leave its list on their own — it
// holds the waits in progress, not every wait there has been.
func TestLTBMonitorEntriesBounded(t *testing.T) {
	const workers = 2
	h := newHarness(43, 4)
	mon := NewLTBMonitor(h.env, h.p)
	mon.Start()
	l := NewLoadTriggeredBackoff(h.env, mon)
	h.run(l, workers, 2*time.Microsecond, time.Microsecond, 20*time.Millisecond)
	if mon.Sleeps != 0 {
		t.Fatalf("monitor put %d spinners to sleep at %d threads on 4 contexts", mon.Sleeps, workers)
	}
	if h.acquires < 1000 {
		t.Fatalf("only %d acquires; the test needs contended waits", h.acquires)
	}
	if n := len(mon.entries); n > workers {
		t.Fatalf("%d monitor entries after %d acquires by %d threads", n, h.acquires, workers)
	}
}

// TestHolderGuardsShareOneThread: a thread holding two locks is watched
// by both their guards, which both see its preemptions; releasing one
// lock stops its guard without silencing the other.
func TestHolderGuardsShareOneThread(t *testing.T) {
	k := sim.NewKernel(41)
	m := cpu.NewMachine(k, cpu.Config{Contexts: 1})
	p := m.NewProcess("p")
	th := p.NewThread("a", func(t *cpu.Thread) { t.Compute(100 * time.Millisecond) })
	p.NewThread("b", func(t *cpu.Thread) { t.Compute(100 * time.Millisecond) })
	var n1, n2 int
	g1 := &holderGuard{markSpinners: func(inv bool) {
		if inv {
			n1++
		}
	}}
	g2 := &holderGuard{markSpinners: func(inv bool) {
		if inv {
			n2++
		}
	}}
	g1.set(th)
	g2.set(th)
	k.RunFor(30 * time.Millisecond)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("guards missed preemption: n1=%d n2=%d", n1, n2)
	}
	g1.set(nil)
	n1Before, n2Before := n1, n2
	k.RunFor(60 * time.Millisecond)
	if n1 != n1Before {
		t.Fatalf("released guard saw %d more preemptions", n1-n1Before)
	}
	if n2 == n2Before {
		t.Fatal("remaining guard stopped seeing preemptions after the other lock was released")
	}
}

func TestDeterministicLockBench(t *testing.T) {
	run := func() int {
		h := newHarness(99, 4)
		l := NewTPMCS(h.env)
		h.run(l, 8, 2*time.Microsecond, 5*time.Microsecond, 60*time.Millisecond)
		return h.acquires
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}
