package runtime_test

import (
	"testing"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
)

// TestRuntimeSetPolicyFlipsEveryLock: one Runtime.SetPolicy flips every
// lock registered with the runtime — a Mutex, an RWMutex, a bare handle
// (the wal's group-commit wait is one) and a Closed lock — and each
// handle logs its one policy-swap event. A waiter parked under block
// when the flip to spin lands still gets the unlock wake and acquires,
// and the next wait spins: past the grace spin and many park checks it
// never claims sleep. Its Free reports the lock free, so a wrong claim
// shows as a Block, not as a hang.
func TestRuntimeSetPolicyFlipsEveryLock(t *testing.T) {
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond, SleepTimeout: time.Minute})
	rt.Start()
	defer rt.Stop()
	mu := golc.New("flip/mutex", golc.WithRuntime(rt), golc.WithPolicy(golc.Block))
	rw := golc.NewRW("flip/rwmutex", golc.WithRuntime(rt), golc.WithPolicy(golc.Block))
	bare := rt.Register("flip/bare")
	bare.SetPolicy(golc.Block)
	closed := golc.New("flip/closed", golc.WithRuntime(rt), golc.WithPolicy(golc.Block))
	closed.Close()
	locks := map[string]func() lcrt.LockStats{
		"flip/mutex": mu.Stats, "flip/rwmutex": rw.Stats, "flip/bare": bare.Stats, "flip/closed": closed.Stats,
	}

	mu.Lock()
	acquired := make(chan struct{})
	go func() {
		mu.Lock()
		close(acquired)
	}()
	eventually(t, "the waiter to park", func() bool { return mu.Stats().SleepingNow == 1 })

	since := rt.Recorder().Now()
	rt.SetPolicy(golc.Spin)
	listed := map[string]string{}
	for _, ls := range rt.Snapshot().Locks {
		listed[ls.Name] = ls.Policy
	}
	swaps := map[string]int{}
	for _, e := range rt.Recorder().Ring().Since(since) {
		if e.Type == obs.EvPolicySwap && e.Label == "spin" {
			swaps[e.Name]++
		}
	}
	for name, stats := range locks {
		if got := stats().Policy; got != "spin" {
			t.Errorf("%s runs %q after the flip to spin", name, got)
		}
		if got, ok := listed[name]; name != "flip/closed" && got != "spin" {
			t.Errorf("the snapshot lists %s (%v) under %q", name, ok, got)
		}
		if swaps[name] != 1 {
			t.Errorf("%s logged %d policy swaps to spin, want 1", name, swaps[name])
		}
	}

	mu.Unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatalf("the waiter parked under block was stranded by the flip: %+v", mu.Stats())
	}
	mu.Unlock()

	tries := 0
	bare.Wait(lcrt.Acquire{
		Try:  func() bool { tries++; return tries > 4096 },
		Free: func() bool { return true },
	})
	if st := bare.Stats(); st.Blocks != 0 || st.Spins < 4096 {
		t.Fatalf("the wait after the flip claimed sleep %d times in %d spins, want spin's none", st.Blocks, st.Spins)
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition %q not reached within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
