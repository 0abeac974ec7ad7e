package cpu

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCumulativeQuantumExhaustsAcrossBlocks(t *testing.T) {
	// A thread that computes 1ms then does I/O, repeatedly, never has a
	// long slice — but its cumulative quantum must still expire, making
	// it a wake-preemption victim once a waker arrives.
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: 1})
	p := m.NewProcess("p")
	p.NewThread("blocky", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Compute(time.Millisecond)
			th.IO(10 * time.Microsecond)
		}
	})
	// A second thread that wakes periodically: its wakeups trigger
	// wake-preemption once blocky's cumulative quantum (10ms) is gone.
	p.NewThread("waker", func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Compute(100 * time.Microsecond)
			th.IO(2 * time.Millisecond)
		}
	})
	k.RunFor(150 * time.Millisecond)
	if m.Preemptions == 0 {
		t.Fatal("cumulative quantum never triggered a preemption despite constant blocking")
	}
}

func TestWakePreemptionDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: 1, DisableWakePreemption: true})
	p := m.NewProcess("p")
	p.NewThread("blocky", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Compute(time.Millisecond)
			th.IO(10 * time.Microsecond)
		}
	})
	p.NewThread("waker", func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Compute(100 * time.Microsecond)
			th.IO(2 * time.Millisecond)
		}
	})
	k.RunFor(150 * time.Millisecond)
	// Tick-based quantum preemption can still fire (runq non-empty +
	// expired quantum at a tick), but wakeups must not preempt: with
	// both threads blocking frequently, preemptions should be rare.
	if m.Preemptions > 5 {
		t.Fatalf("%d preemptions with wake preemption disabled", m.Preemptions)
	}
}

func TestQuantumReplenishedAfterPreemption(t *testing.T) {
	// After an involuntary preemption the quantum resets: a thread must
	// not be immediately re-victimized on redispatch.
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: 1})
	p := m.NewProcess("p")
	a := p.NewThread("a", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	p.NewThread("b", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	k.RunFor(300 * time.Millisecond)
	if a.timeleft <= 0 {
		t.Fatalf("thread left with exhausted quantum: %v", a.timeleft)
	}
	// Round-robin sharing: both threads must finish in a bounded time.
	if !a.Done() {
		t.Fatal("thread a never finished")
	}
}

func TestDispatcherSerializationDelaysBursts(t *testing.T) {
	// With dispatcher serialization, a burst of simultaneous wakeups is
	// spread out; without, they dispatch in parallel.
	run := func(serial time.Duration) sim.Time {
		k := sim.NewKernel(1)
		m := NewMachine(k, Config{Contexts: 16, DispatchSerial: serial})
		p := m.NewProcess("p")
		var last sim.Time
		for i := 0; i < 16; i++ {
			p.NewThread("w", func(th *Thread) {
				th.IO(time.Millisecond) // all wake at the same instant
				th.Compute(10 * time.Microsecond)
				last = k.Now()
			})
		}
		k.RunFor(100 * time.Millisecond)
		return last
	}
	fast := run(0)
	slow := run(2 * time.Microsecond)
	if slow <= fast {
		t.Fatalf("serialization had no effect: %v vs %v",
			time.Duration(fast), time.Duration(slow))
	}
	// 16 dispatches x 2µs = at least 30µs of extra serialized delay on
	// the last one.
	if slow-fast < sim.Time(20*time.Microsecond) {
		t.Fatalf("serialization too weak: delta %v", time.Duration(slow-fast))
	}
}

func TestAccountingReadStallsDispatch(t *testing.T) {
	// A measurement with a large cost must delay subsequent dispatches
	// (the §6.2.2 kernel serialization).
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{
		Contexts:                2,
		AccountingBaseCost:      200 * time.Microsecond,
		AccountingPerThreadCost: time.Nanosecond,
	})
	p := m.NewProcess("p")
	reader := p.NewThread("reader", func(th *Thread) {
		th.Compute(time.Microsecond)
		m.ChargeAccountingRead(th, p)
	})
	_ = reader
	var started sim.Time
	k.After(50*time.Microsecond, func() {
		p.NewThread("late", func(th *Thread) {
			started = k.Now()
			th.Compute(time.Microsecond)
		})
	})
	k.RunFor(10 * time.Millisecond)
	// The late thread becomes runnable at 50µs with an idle context,
	// but its dispatch is stalled behind the accounting read (which
	// runs from ~13µs to ~213µs).
	if started < sim.Time(200*time.Microsecond) {
		t.Fatalf("dispatch not stalled by accounting read: started at %v",
			time.Duration(started))
	}
}

func TestTimedParkSetCleanedUp(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: 2})
	p := m.NewProcess("p")
	for i := 0; i < 10; i++ {
		p.NewThread("w", func(th *Thread) {
			for j := 0; j < 5; j++ {
				th.Park(time.Millisecond)
			}
		})
	}
	k.RunFor(time.Second)
	if len(m.sched.timedParked) != 0 {
		t.Fatalf("timedParked leak: %d entries", len(m.sched.timedParked))
	}
}

func TestUnparkBeatsTimeout(t *testing.T) {
	// Unpark just before the tick that would time the park out: the
	// reason must be WakeSignal, and no double-wake may occur.
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: 2})
	p := m.NewProcess("p")
	var reasons []WakeReason
	th := p.NewThread("sleeper", func(th *Thread) {
		reasons = append(reasons, th.Park(5*time.Millisecond))
		reasons = append(reasons, th.Park(5*time.Millisecond))
	})
	k.After(sim.Duration(10*time.Millisecond)-1, func() { th.Unpark() })
	k.RunFor(time.Second)
	if len(reasons) != 2 {
		t.Fatalf("parks = %d, want 2", len(reasons))
	}
	if reasons[0] != WakeSignal {
		t.Fatalf("first park reason = %v, want WakeSignal", reasons[0])
	}
	if reasons[1] != WakeTimeout {
		t.Fatalf("second park reason = %v, want WakeTimeout", reasons[1])
	}
}

func TestRunnableNeverNegative(t *testing.T) {
	k := sim.NewKernel(7)
	m := NewMachine(k, Config{Contexts: 2})
	p := m.NewProcess("p")
	m.Observe(func(pp *Process, r int) {
		if r < 0 {
			t.Fatalf("negative runnable count: %d", r)
		}
	})
	for i := 0; i < 6; i++ {
		r := k.Rand().Fork()
		p.NewThread("w", func(th *Thread) {
			for j := 0; j < 30; j++ {
				switch r.Intn(3) {
				case 0:
					th.Compute(time.Duration(r.Intn(int(time.Millisecond))))
				case 1:
					th.IO(time.Duration(r.Intn(int(time.Millisecond))))
				case 2:
					th.Park(time.Duration(r.Intn(int(5 * time.Millisecond))))
				}
			}
		})
	}
	k.RunFor(2 * time.Second)
}

func TestContextNeverRunsTwoThreads(t *testing.T) {
	// Structural invariant: at any event boundary, each thread is on at
	// most one context and each context holds at most one thread.
	k := sim.NewKernel(9)
	m := NewMachine(k, Config{Contexts: 3})
	p := m.NewProcess("p")
	for i := 0; i < 9; i++ {
		r := k.Rand().Fork()
		p.NewThread("w", func(th *Thread) {
			for j := 0; j < 50; j++ {
				th.Compute(time.Duration(r.Intn(int(500 * time.Microsecond))))
				if r.Intn(3) == 0 {
					th.IO(time.Duration(r.Intn(int(time.Millisecond))))
				}
			}
		})
	}
	check := func() {
		seen := map[*Thread]int{}
		for _, c := range m.ctxs {
			if c.thread != nil {
				seen[c.thread]++
				if seen[c.thread] > 1 {
					t.Fatal("thread on two contexts")
				}
				if c.thread.ctx != c {
					t.Fatal("thread/context disagree")
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		k.RunFor(500 * time.Microsecond)
		check()
	}
}
