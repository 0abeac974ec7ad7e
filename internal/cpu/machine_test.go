package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// testMachine builds a small fast machine for unit tests.
func testMachine(ctxs int) (*sim.Kernel, *Machine, *Process) {
	k := sim.NewKernel(1)
	m := NewMachine(k, Config{Contexts: ctxs})
	p := m.NewProcess("test")
	return k, m, p
}

func TestComputeConsumesExactTime(t *testing.T) {
	k, _, p := testMachine(2)
	var end sim.Time
	p.NewThread("w", func(th *Thread) {
		th.Compute(100 * time.Microsecond)
		end = k.Now()
	})
	k.RunFor(time.Second)
	// 12µs switch-in + 100µs work.
	want := sim.Time(12*time.Microsecond + 100*time.Microsecond)
	if end != want {
		t.Fatalf("compute finished at %v, want %v", end, want)
	}
}

func TestWorkAccounting(t *testing.T) {
	k, _, p := testMachine(2)
	th := p.NewThread("w", func(th *Thread) {
		th.Compute(250 * time.Microsecond)
	})
	k.RunFor(time.Second)
	if got := th.Acct().Work; got != 250*time.Microsecond {
		t.Fatalf("Work = %v, want 250µs", got)
	}
}

func TestMoreThreadsThanContextsAllFinish(t *testing.T) {
	k, _, p := testMachine(2)
	done := 0
	for i := 0; i < 8; i++ {
		p.NewThread("w", func(th *Thread) {
			th.Compute(1 * time.Millisecond)
			done++
		})
	}
	k.RunFor(time.Second)
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
}

func TestPreemptionSharesCPUFairly(t *testing.T) {
	// 1 context, 2 CPU-bound threads: both should make progress because
	// of quantum preemption at ticks.
	k, m, p := testMachine(1)
	var doneA, doneB sim.Time
	p.NewThread("a", func(th *Thread) {
		th.Compute(30 * time.Millisecond)
		doneA = k.Now()
	})
	p.NewThread("b", func(th *Thread) {
		th.Compute(30 * time.Millisecond)
		doneB = k.Now()
	})
	k.RunFor(200 * time.Millisecond)
	if doneA == 0 || doneB == 0 {
		t.Fatalf("threads did not finish: a=%v b=%v", doneA, doneB)
	}
	if m.Preemptions == 0 {
		t.Fatal("expected preemptions with 2 threads on 1 context")
	}
	// Round-robin: both finish within ~2 quanta of each other, and
	// neither finishes before 50ms (they interleave).
	if doneA < sim.Time(50*time.Millisecond) && doneB < sim.Time(50*time.Millisecond) {
		t.Fatalf("threads ran back-to-back, not interleaved: a=%v b=%v", doneA, doneB)
	}
}

func TestNoPreemptionWhenRunQueueEmpty(t *testing.T) {
	k, m, p := testMachine(2)
	p.NewThread("a", func(th *Thread) { th.Compute(50 * time.Millisecond) })
	k.RunFor(100 * time.Millisecond)
	if m.Preemptions != 0 {
		t.Fatalf("preemptions = %d, want 0 (nobody waiting)", m.Preemptions)
	}
}

func TestRunnableCountTracksStates(t *testing.T) {
	k, _, p := testMachine(2)
	p.NewThread("a", func(th *Thread) {
		th.Compute(time.Millisecond)
		th.IO(10 * time.Millisecond)
		th.Compute(time.Millisecond)
	})
	k.RunFor(500 * time.Microsecond)
	if p.Runnable() != 1 {
		t.Fatalf("runnable during compute = %d, want 1", p.Runnable())
	}
	k.RunFor(5 * time.Millisecond) // inside the IO window
	if p.Runnable() != 0 {
		t.Fatalf("runnable during IO = %d, want 0", p.Runnable())
	}
	k.RunFor(time.Second)
	if p.Runnable() != 0 {
		t.Fatalf("runnable after exit = %d, want 0", p.Runnable())
	}
}

func TestIOCompletionIsPrecise(t *testing.T) {
	k, _, p := testMachine(2)
	var resumed sim.Time
	p.NewThread("a", func(th *Thread) {
		th.Compute(time.Microsecond)
		start := k.Now()
		th.IO(3 * time.Millisecond)
		resumed = k.Now() - start
	})
	k.RunFor(time.Second)
	// IO latency + redispatch resume cost (same thread, warm switch).
	want := sim.Time(3*time.Millisecond) + sim.Time(DefaultConfig().ResumeCost)
	if resumed != want {
		t.Fatalf("IO resume after %v, want %v", time.Duration(resumed), time.Duration(want))
	}
}

func TestParkTimeoutQuantizedToTick(t *testing.T) {
	// A 1ms park must not wake until the next 10ms scheduler tick.
	k, _, p := testMachine(2)
	var woke sim.Time
	var reason WakeReason
	p.NewThread("a", func(th *Thread) {
		th.Compute(time.Microsecond)
		reason = th.Park(1 * time.Millisecond)
		woke = k.Now()
	})
	k.RunFor(time.Second)
	if reason != WakeTimeout {
		t.Fatalf("reason = %v, want WakeTimeout", reason)
	}
	if woke < sim.Time(10*time.Millisecond) {
		t.Fatalf("park woke at %v, before the 10ms tick", time.Duration(woke))
	}
	if woke > sim.Time(11*time.Millisecond) {
		t.Fatalf("park woke at %v, way after the 10ms tick", time.Duration(woke))
	}
}

func TestParkUnparkIsPrompt(t *testing.T) {
	k, _, p := testMachine(2)
	var woke sim.Time
	var reason WakeReason
	th := p.NewThread("sleeper", func(th *Thread) {
		reason = th.Park(0)
		woke = k.Now()
	})
	k.After(5*time.Millisecond, func() { th.Unpark() })
	k.RunFor(time.Second)
	if reason != WakeSignal {
		t.Fatalf("reason = %v, want WakeSignal", reason)
	}
	// Wake + warm redispatch; must NOT wait for the 10ms tick.
	if woke > sim.Time(6*time.Millisecond) {
		t.Fatalf("unpark woke at %v, want ~5ms", time.Duration(woke))
	}
}

func TestUnparkTokenBeforePark(t *testing.T) {
	k, _, p := testMachine(2)
	hits := 0
	var th *Thread
	th = p.NewThread("a", func(t2 *Thread) {
		t2.Compute(time.Millisecond)
		if r := t2.Park(0); r != WakeSignal {
			t.Errorf("park with pending token returned %v", r)
		}
		hits++
	})
	// Unpark while the thread is still computing: token must be kept.
	k.After(100*time.Microsecond, func() { th.Unpark() })
	k.RunFor(time.Second)
	if hits != 1 {
		t.Fatal("thread never passed Park")
	}
}

func TestSpinWaitGrantedWhileOnCPU(t *testing.T) {
	k, _, p := testMachine(2)
	const granted = 7
	var got int
	var woke sim.Time
	th := p.NewThread("spinner", func(th *Thread) {
		got = th.SpinWait()
		woke = k.Now()
	})
	k.After(2*time.Millisecond, func() {
		if !th.SpinWake(granted) {
			t.Error("SpinWake returned false")
		}
	})
	k.RunFor(time.Second)
	if got != granted {
		t.Fatalf("spin result = %d, want %d", got, granted)
	}
	if woke != sim.Time(2*time.Millisecond) {
		t.Fatalf("spin ended at %v, want 2ms", time.Duration(woke))
	}
	if acct := th.Acct(); acct.SpinContention < time.Millisecond {
		t.Fatalf("spin time not accounted: %+v", acct)
	}
}

func TestSpinWakeToPreemptedThreadWaitsForDispatch(t *testing.T) {
	// One context: spinner starts, a CPU hog preempts it at the first
	// tick, then the spin is granted while the spinner is off CPU. The
	// spinner must not observe the grant until it is dispatched again.
	k, m, p := testMachine(1)
	var got int
	var woke sim.Time
	spinner := p.NewThread("spinner", func(th *Thread) {
		got = th.SpinWait()
		woke = k.Now()
	})
	p.NewThread("hog", func(th *Thread) {
		th.Compute(40 * time.Millisecond)
	})
	// The spinner's slice starts at ~12µs, so its quantum expires just
	// after the 10ms tick and it is preempted at the 20ms tick. Grant
	// at 25ms while the spinner is off CPU.
	k.After(25*time.Millisecond, func() {
		if spinner.Running() {
			t.Error("spinner still on CPU at 25ms; preemption failed")
		}
		spinner.SpinWake(1)
	})
	k.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("spin result = %d, want 1", got)
	}
	// The spinner resumes only when the hog is next preempted (40ms
	// tick); the grant must not be observable before redispatch.
	if woke < sim.Time(40*time.Millisecond) {
		t.Fatalf("preempted spinner observed grant at %v, before redispatch", time.Duration(woke))
	}
	if m.Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestSpinDoubleWakeRejected(t *testing.T) {
	k, _, p := testMachine(2)
	th := p.NewThread("spinner", func(th *Thread) { th.SpinWait() })
	k.After(time.Millisecond, func() {
		if !th.SpinWake(1) {
			t.Error("first wake rejected")
		}
		if th.SpinWake(2) {
			t.Error("second wake accepted")
		}
	})
	k.RunFor(10 * time.Millisecond)
}

func TestSpinPrioInvAccounting(t *testing.T) {
	k, _, p := testMachine(2)
	th := p.NewThread("spinner", func(th *Thread) { th.SpinWait() })
	k.After(1*time.Millisecond, func() { th.SetSpinPrioInv(true) })
	k.After(3*time.Millisecond, func() { th.SpinWake(1) })
	k.RunFor(10 * time.Millisecond)
	acct := th.Acct()
	if acct.SpinContention > 1100*time.Microsecond || acct.SpinContention < 900*time.Microsecond {
		t.Fatalf("SpinContention = %v, want ~1ms", acct.SpinContention)
	}
	if acct.SpinPrioInv > 2100*time.Microsecond || acct.SpinPrioInv < 1900*time.Microsecond {
		t.Fatalf("SpinPrioInv = %v, want ~2ms", acct.SpinPrioInv)
	}
}

func TestRealtimePreemptsTimeSharing(t *testing.T) {
	k, _, p := testMachine(1)
	var rtRan sim.Time
	p.NewThread("hog", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	k.After(5*time.Millisecond, func() {
		rt := p.NewThread("daemon", func(th *Thread) {
			th.Compute(10 * time.Microsecond)
			rtRan = k.Now()
		})
		rt.SetRealtime(true)
	})
	k.RunFor(time.Second)
	if rtRan == 0 {
		t.Fatal("rt thread never ran")
	}
	// Must run right after 5ms (eviction + switch), not wait for the
	// hog's 100ms compute or even the 10ms tick.
	if rtRan > sim.Time(6*time.Millisecond) {
		t.Fatalf("rt thread ran at %v, want ~5ms", time.Duration(rtRan))
	}
}

func TestSwitchCountIncreases(t *testing.T) {
	k, m, p := testMachine(1)
	for i := 0; i < 4; i++ {
		p.NewThread("w", func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Compute(100 * time.Microsecond)
				th.IO(time.Millisecond)
			}
		})
	}
	k.RunFor(time.Second)
	if m.Switches < 12 {
		t.Fatalf("switches = %d, want >= 12", m.Switches)
	}
}

func TestLoadMeterMeasuresAverageRunnable(t *testing.T) {
	k, _, p := testMachine(4)
	// Two CPU-bound threads for the whole window.
	for i := 0; i < 2; i++ {
		p.NewThread("w", func(th *Thread) { th.Compute(time.Second) })
	}
	k.RunFor(time.Millisecond)
	lm := NewLoadMeter(p)
	k.RunFor(50 * time.Millisecond)
	load := lm.Read()
	if load < 1.95 || load > 2.05 {
		t.Fatalf("load = %v, want ~2", load)
	}
}

func TestLoadMeterSeesRunQueueWaiters(t *testing.T) {
	k, _, p := testMachine(1)
	for i := 0; i < 3; i++ {
		p.NewThread("w", func(th *Thread) { th.Compute(time.Second) })
	}
	k.RunFor(time.Millisecond)
	lm := NewLoadMeter(p)
	k.RunFor(50 * time.Millisecond)
	load := lm.Read()
	if load < 2.9 || load > 3.1 {
		t.Fatalf("load = %v, want ~3 (1 running + 2 queued)", load)
	}
}

func TestAccountingCostGrowsWithThreads(t *testing.T) {
	_, m, p := testMachine(2)
	c0 := m.AccountingCost(p)
	for i := 0; i < 10; i++ {
		p.NewThread("w", func(th *Thread) {})
	}
	c10 := m.AccountingCost(p)
	if c10 <= c0 {
		t.Fatalf("cost did not grow: %v -> %v", c0, c10)
	}
	want := c0 + 10*DefaultConfig().AccountingPerThreadCost
	if c10 != want {
		t.Fatalf("cost = %v, want %v", c10, want)
	}
}

func TestUtilizationBounded(t *testing.T) {
	k, m, p := testMachine(2)
	p.NewThread("w", func(th *Thread) { th.Compute(40 * time.Millisecond) })
	k.RunFor(80 * time.Millisecond)
	u := m.Utilization()
	// One context busy for half the 80ms window, out of two contexts.
	if u <= 0.2 || u > 0.3 {
		t.Fatalf("utilization = %v, want ~0.25", u)
	}
}

func TestObserverSeesTransitions(t *testing.T) {
	k, m, p := testMachine(2)
	var maxSeen int
	m.Observe(func(pp *Process, r int) {
		if r > maxSeen {
			maxSeen = r
		}
	})
	for i := 0; i < 3; i++ {
		p.NewThread("w", func(th *Thread) { th.Compute(time.Millisecond) })
	}
	k.RunFor(time.Second)
	if maxSeen != 3 {
		t.Fatalf("max runnable seen = %d, want 3", maxSeen)
	}
}

func TestTwoProcessesShareMachine(t *testing.T) {
	k, m, _ := testMachine(2)
	p1 := m.NewProcess("p1")
	p2 := m.NewProcess("p2")
	var w1, w2 time.Duration
	for i := 0; i < 2; i++ {
		p1.NewThread("w", func(th *Thread) { th.Compute(100 * time.Millisecond) })
		p2.NewThread("w", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	}
	k.RunFor(250 * time.Millisecond)
	w1 = p1.Acct().Work
	w2 = p2.Acct().Work
	if w1 == 0 || w2 == 0 {
		t.Fatalf("a process starved: %v vs %v", w1, w2)
	}
	ratio := float64(w1) / float64(w2)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("unfair sharing: %v vs %v", w1, w2)
	}
}

// logWatcher appends its name and each transition it sees to a log
// shared with the other watchers of the same thread.
type logWatcher struct {
	name string
	log  *[]string
}

func (w *logWatcher) Executing(_ *Thread, on bool) {
	*w.log = append(*w.log, fmt.Sprintf("%s:%t", w.name, on))
}

// TestPreemptionHooksFire: a thread tells each of its watchers, in
// registration order, when it starts and stops executing; removing one
// watcher leaves the others.
func TestPreemptionHooksFire(t *testing.T) {
	k, _, p := testMachine(1)
	var log []string
	w1 := &logWatcher{"w1", &log}
	w2 := &logWatcher{"w2", &log}
	th := p.NewThread("a", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	th.Watch(w1)
	th.Watch(w2)
	p.NewThread("b", func(th *Thread) { th.Compute(100 * time.Millisecond) })
	k.RunFor(60 * time.Millisecond)
	if !slices.Contains(log, "w1:true") || !slices.Contains(log, "w1:false") {
		t.Fatalf("watcher missed a transition: %v", log)
	}
	for i := 0; i < len(log); i += 2 {
		if !strings.HasPrefix(log[i], "w1:") || log[i+1] != "w2"+log[i][2:] {
			t.Fatalf("watchers out of registration order at %d: %v", i, log)
		}
	}
	th.Unwatch(w1)
	log = nil
	k.RunFor(60 * time.Millisecond)
	if len(log) == 0 {
		t.Fatal("remaining watcher stopped firing after the other was removed")
	}
	for _, e := range log {
		if !strings.HasPrefix(e, "w2:") {
			t.Fatalf("removed watcher fired: %v", log)
		}
	}
}

func TestDeterministicMachine(t *testing.T) {
	run := func() (sim.Time, uint64) {
		k := sim.NewKernel(99)
		m := NewMachine(k, Config{Contexts: 2})
		p := m.NewProcess("p")
		var last sim.Time
		for i := 0; i < 6; i++ {
			r := k.Rand().Fork()
			p.NewThread("w", func(th *Thread) {
				for j := 0; j < 20; j++ {
					th.Compute(time.Duration(r.Intn(int(time.Millisecond))))
					if r.Intn(2) == 0 {
						th.IO(time.Duration(r.Intn(int(2 * time.Millisecond))))
					}
					last = k.Now()
				}
			})
		}
		k.RunFor(400 * time.Millisecond)
		return last, m.Switches
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}
