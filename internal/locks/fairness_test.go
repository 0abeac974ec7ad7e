package locks

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cpu"
)

// acquireCounts runs n threads on one lock and returns per-thread
// acquisition counts.
func acquireCounts(seed uint64, f Factory, n int, dur time.Duration) []int {
	h := newHarness(seed, n) // enough contexts that no preemption occurs
	l := f(h.env)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		h.p.NewThread(fmt.Sprintf("w%d", i), func(t *cpu.Thread) {
			for {
				l.Acquire(t)
				t.Compute(time.Microsecond)
				counts[i]++
				l.Release(t)
				t.Compute(time.Microsecond)
			}
		})
	}
	h.k.RunFor(dur)
	return counts
}

// TestQueueLocksAreFair: FIFO locks give every thread a near-equal share
// under saturation.
func TestQueueLocksAreFair(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"mcs", NewMCS},
		{"tp-mcs", NewTPMCS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := acquireCounts(3, tc.f, 6, 40*time.Millisecond)
			lo, hi := counts[0], counts[0]
			for _, c := range counts {
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if lo == 0 {
				t.Fatalf("%s: a thread starved: %v", tc.name, counts)
			}
			if float64(hi) > 1.25*float64(lo) {
				t.Fatalf("%s: unfair shares: %v", tc.name, counts)
			}
		})
	}
}

// TestTPMCSRemovalCostOnCriticalPath: a release walking k preempted
// waiters must consume k * TPRemoval of the releaser's CPU.
func TestTPMCSRemovalCostOnCriticalPath(t *testing.T) {
	h := newHarness(11, 8)
	l := newQueueLock(h.env, true)
	var releaseTime time.Duration
	holder := h.p.NewThread("holder", func(t *cpu.Thread) {
		l.Acquire(t)
		t.Compute(30 * time.Millisecond) // waiters pile up and are parked below
		start := h.k.Now()
		l.Release(t)
		releaseTime = time.Duration(h.k.Now() - start)
	})
	// Real-time, so the real-time hogs below evict the waiters and leave
	// the holder running through its release.
	holder.SetRealtime(true)
	const waiters = 5
	for i := 0; i < waiters; i++ {
		h.p.NewThread(fmt.Sprintf("w%d", i), func(t *cpu.Thread) {
			t.Compute(time.Millisecond)
			l.Acquire(t)
			l.Release(t)
		})
	}
	// Evict all the waiters with real-time hogs just before the release
	// so the releaser finds a queue full of preempted nodes.
	h.k.After(25*time.Millisecond, func() {
		for i := 0; i < 8; i++ {
			rt := h.p.NewThread("evict", func(t *cpu.Thread) { t.Compute(20 * time.Millisecond) })
			rt.SetRealtime(true)
		}
	})
	h.k.RunFor(300 * time.Millisecond)
	if l.Removals == 0 {
		t.Fatalf("no removals: the release skipped no preempted waiter (the simulator is deterministic, so this is the lock, not the schedule)")
	}
	minCost := time.Duration(l.Removals) * h.env.Costs.TPRemoval
	if releaseTime < minCost {
		t.Fatalf("release took %v, less than %d removals x %v",
			releaseTime, l.Removals, h.env.Costs.TPRemoval)
	}
}
