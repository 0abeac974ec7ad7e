package golc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lcrt "repro/internal/golc/runtime"
)

func newTestRuntime(t *testing.T, opts lcrt.Options) *lcrt.Runtime {
	t.Helper()
	rt := lcrt.New(opts)
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func TestMutexMutualExclusion(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := New("mutex", WithRuntime(rt))
	const workers, iters = 8, 5000
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
}

func TestSpinPolicyMutualExclusion(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := New("spin-mu", WithPolicy(Spin), WithRuntime(rt))
	const workers, iters = 8, 5000
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	mu := New("mutex", WithRuntime(lcrt.New(lcrt.Options{})))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unlock of unlocked mutex")
		}
	}()
	mu.Unlock()
}

func TestNilRuntimeUsesDefault(t *testing.T) {
	mu := New("mutex")
	defer mu.Close()
	mu.Lock()
	mu.Unlock()
	found := false
	for _, ls := range lcrt.Default().Snapshot().Locks {
		if ls.Name == "mutex" {
			found = true
		}
	}
	if !found {
		t.Fatal("mutex not registered with the default runtime")
	}
}

func TestRuntimeClaimsUnderOversubscription(t *testing.T) {
	// Many more contending goroutines than procs and the default
	// sensor: the run queue it measures is real excess load, so claims
	// must happen, and the lock's own counters must see them.
	rt := newTestRuntime(t, lcrt.Options{Interval: 500 * time.Microsecond})
	mu := New("hot", WithRuntime(rt))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	n := 8 * runtime.GOMAXPROCS(0)
	var ops atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				// A critical section long enough to pile up spinners.
				busy := time.Now().Add(2 * time.Microsecond)
				for time.Now().Before(busy) {
				}
				mu.Unlock()
				ops.Add(1)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	snap := rt.Snapshot()
	if snap.Updates == 0 {
		t.Fatal("controller never updated")
	}
	if snap.Claims == 0 {
		t.Fatal("no sleep-slot claims despite 8x oversubscription")
	}
	if ops.Load() == 0 {
		t.Fatal("no progress")
	}
	ls := mu.Stats()
	if ls.Name != "hot" || ls.Blocks == 0 || ls.Spins == 0 {
		t.Fatalf("per-lock stats did not record activity: %+v", ls)
	}
}

func TestStopWakesSleepers(t *testing.T) {
	rt := lcrt.New(lcrt.Options{
		Interval:     500 * time.Microsecond,
		SleepTimeout: 10 * time.Second, // only a controller wake can end the sleep
	})
	rt.Start()
	mu := New("mutex", WithRuntime(rt))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				busy := time.Now().Add(2 * time.Microsecond)
				for time.Now().Before(busy) {
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	rt.Stop() // must wake all sleepers so workers can observe stop
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workers hung after Stop (sleepers not woken)")
	}
}

func TestSharedRuntimeAcrossMutexes(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{Interval: time.Millisecond})
	a, b := New("a", WithRuntime(rt)), New("b", WithRuntime(rt))
	var wg sync.WaitGroup
	counter := [2]int{}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				a.Lock()
				counter[0]++
				a.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				b.Lock()
				counter[1]++
				b.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter[0] != 8000 || counter[1] != 8000 {
		t.Fatalf("counters = %v", counter)
	}
	snap := rt.Snapshot()
	if snap.LocksRegistered != 2 || len(snap.Locks) != 2 {
		t.Fatalf("registry = %d locks (%d listed), want 2", snap.LocksRegistered, len(snap.Locks))
	}
	if snap.Locks[0].Name != "a" || snap.Locks[1].Name != "b" {
		t.Fatalf("snapshot order = %q,%q, want a,b", snap.Locks[0].Name, snap.Locks[1].Name)
	}
}

func TestRWMutexWriterExclusion(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := NewRW("rwmutex", WithRuntime(rt))
	const workers, iters = 8, 3000
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
}

func TestRWMutexReadersShareWritersExclude(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := NewRW("rwmutex", WithRuntime(rt))
	var concurrentReaders, maxReaders atomic.Int32
	value := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() { // reader
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				mu.RLock()
				n := concurrentReaders.Add(1)
				for {
					m := maxReaders.Load()
					if n <= m || maxReaders.CompareAndSwap(m, n) {
						break
					}
				}
				_ = value
				concurrentReaders.Add(-1)
				mu.RUnlock()
			}
		}()
		go func() { // writer
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				mu.Lock()
				if r := concurrentReaders.Load(); r != 0 {
					panic("writer saw active readers")
				}
				value++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if value != 4000 {
		t.Fatalf("value = %d, want 4000", value)
	}
	if maxReaders.Load() < 2 && runtime.GOMAXPROCS(0) > 1 {
		t.Logf("note: never observed concurrent readers (max=%d)", maxReaders.Load())
	}
}

func TestRWMutexMisuse(t *testing.T) {
	rt := lcrt.New(lcrt.Options{})
	t.Run("RUnlockUnlocked", func(t *testing.T) {
		mu := NewRW("rwmutex", WithRuntime(rt))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		mu.RUnlock()
	})
	t.Run("UnlockNotWriteHeld", func(t *testing.T) {
		mu := NewRW("rwmutex", WithRuntime(rt))
		mu.RLock()
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		mu.Unlock()
	})
}

// TestUnlockWakesParkedWaiter is the stall-regression test: a lock
// whose only waiter has parked is released while a constant LoadFunc
// keeps the global target high (standing in for other locks' spinners),
// so neither the controller nor the 10s safety timeout can help — only
// the unlock-side wake. The waiter must acquire within a few controller
// intervals, not the timeout.
func TestUnlockWakesParkedWaiter(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: 10 * time.Second,        // a timeout wake would blow the latency assert
		LoadFunc:     func() int { return 8 }, // hot "other locks" keep T high forever
	})
	mu := New("mutex", WithRuntime(rt))
	mu.Lock()
	acquired := make(chan time.Duration, 1)
	var released atomic.Int64
	go func() {
		mu.Lock()
		acquired <- time.Duration(time.Now().UnixNano() - released.Load())
		mu.Unlock()
	}()
	// Wait for the waiter to park (target is high, so it will).
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Sleeping == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked: %+v", rt.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	released.Store(time.Now().UnixNano())
	mu.Unlock()
	select {
	case lat := <-acquired:
		// "A few controller intervals" — generous bound for loaded CI
		// machines, still far from the 10s timeout.
		if lat > time.Second {
			t.Fatalf("handoff took %v, want well under the safety timeout", lat)
		}
		t.Logf("unlock-to-acquire handoff: %v", lat)
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter stranded after unlock: %+v", rt.Snapshot())
	}
	if snap := rt.Snapshot(); snap.UnlockWakes+snap.Cancels == 0 {
		t.Fatalf("handoff used neither the unlock wake nor a cancel: %+v", snap)
	}
}

// TestRUnlockWakesParkedWriter: the reader-side release of the last
// read hold must wake a parked writer the same way.
func TestRUnlockWakesParkedWriter(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: 10 * time.Second,
		LoadFunc:     func() int { return 8 },
	})
	mu := NewRW("rwmutex", WithRuntime(rt))
	mu.RLock()
	acquired := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock()
		close(acquired)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Sleeping == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("writer never parked: %+v", rt.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	mu.RUnlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatalf("writer stranded after RUnlock: %+v", rt.Snapshot())
	}
}

// TestRWMutexNoStrandOnWriterParkCommit hammers the narrow race where
// a writer committed to parking still holds wwait while the last read
// hold is released: the reader gated by that doomed wwait parks too,
// and without the wake hook at the writer's wwait drop both sleep on a
// free lock until the safety timeout. With a 5s timeout and a high
// constant target, any strand either trips the watchdog or shows up as
// a TimeoutWakes count.
func TestRWMutexNoStrandOnWriterParkCommit(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: 5 * time.Second,
		LoadFunc:     func() int { return 16 },
	})
	mu := NewRW("rwmutex", WithRuntime(rt))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() { // reader
			defer wg.Done()
			for j := 0; j < 1500; j++ {
				mu.RLock()
				mu.RUnlock()
			}
		}()
		go func() { // writer
			defer wg.Done()
			for j := 0; j < 1500; j++ {
				mu.Lock()
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		t.Fatalf("rwmutex stalled (waiters stranded on a free lock): %+v", rt.Snapshot())
	}
	if snap := rt.Snapshot(); snap.TimeoutWakes != 0 {
		t.Fatalf("a waiter fell back to the safety timeout: %+v", snap)
	}
}

// TestAdversarialTwoLocks is the paper-failure-mode scenario run with
// real load (no LoadFunc): one hot lock's oversubscribed waiters keep
// the measured load, and so the global target, above zero while a
// second lock's waiter parks; releasing the second lock must hand it
// off via the unlock-side wake long before the safety timeout. Kept
// short so CI runs it in -short mode too.
func TestAdversarialTwoLocks(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: 10 * time.Second,
	})
	hot := New("hot", WithRuntime(rt))
	cold := New("cold", WithRuntime(rt))

	// Hot lock: more contenders than Ps (they hold the lock in turn,
	// with a critical section long enough that waiters accumulate).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hot.Lock()
				busy := time.Now().Add(5 * time.Microsecond)
				for time.Now().Before(busy) {
				}
				hot.Unlock()
			}
		}()
	}

	// Cold lock: held by us while its only waiter parks.
	cold.Lock()
	acquired := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cold.Lock()
		cold.Unlock()
		close(acquired)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for cold.Stats().Blocks == 0 {
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("cold waiter never parked: snap=%+v cold=%+v", rt.Snapshot(), cold.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cold.Unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		close(stop)
		t.Fatalf("cold lock stranded: snap=%+v cold=%+v", rt.Snapshot(), cold.Stats())
	}
	handoff := time.Since(start)
	close(stop)
	wg.Wait()
	t.Logf("cold-lock handoff under hot-lock pressure: %v (cold stats %+v)", handoff, cold.Stats())
	if handoff > 2*time.Second {
		t.Fatalf("handoff took %v, want well under the 10s timeout backstop", handoff)
	}
	cs := cold.Stats()
	if cs.TimeoutWakes != 0 {
		t.Fatalf("cold lock fell back to the safety timeout: %+v", cs)
	}
}

func TestSpinPolicyRWMutex(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := NewRW("spin-rw", WithPolicy(Spin), WithRuntime(rt))
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				mu.RLock()
				_ = counter
				mu.RUnlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

// TestTryLock covers the non-blocking acquire across every lock type
// (the sync types included: same method set).
func TestTryLock(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mutexes := []struct {
		name string
		mu   interface {
			Locker
			TryLock() bool
		}
	}{
		{"Mutex", New("mutex", WithRuntime(rt))},
		{"Mutex/spin", New("try-spin", WithPolicy(Spin), WithRuntime(rt))},
		{"Mutex/block", New("try-block", WithPolicy(Block), WithRuntime(rt))},
		{"RWMutex", NewRW("rwmutex", WithRuntime(rt))},
		{"RWMutex/spin", NewRW("try-spin-rw", WithPolicy(Spin), WithRuntime(rt))},
		{"sync.Mutex", new(sync.Mutex)},
		{"sync.RWMutex", new(sync.RWMutex)},
	}
	for _, tc := range mutexes {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.mu.TryLock() {
				t.Fatal("TryLock failed on a free lock")
			}
			if tc.mu.TryLock() {
				t.Fatal("TryLock succeeded on a held lock")
			}
			tc.mu.Unlock()
			if !tc.mu.TryLock() {
				t.Fatal("TryLock failed after Unlock")
			}
			tc.mu.Unlock()
		})
	}
}

// TestTryRLock: readers probe past reader-held locks but never past a
// writer or the writer-preference gate.
func TestTryRLock(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := NewRW("rwmutex", WithRuntime(rt))
	if !mu.TryRLock() {
		t.Fatal("TryRLock failed on a free lock")
	}
	if !mu.TryRLock() {
		t.Fatal("TryRLock failed alongside another reader")
	}
	mu.RUnlock()
	mu.RUnlock()
	if !mu.TryLock() {
		t.Fatal("TryLock failed on a free lock")
	}
	if mu.TryRLock() {
		t.Fatal("TryRLock succeeded under a writer")
	}
	mu.Unlock()

	// A blocked waiting writer must gate TryRLock (writer preference).
	mu.RLock()
	writerIn := make(chan struct{})
	go func() {
		close(writerIn)
		mu.Lock()
		mu.Unlock()
	}()
	<-writerIn
	deadline := time.Now().Add(2 * time.Second)
	gated := false
	for time.Now().Before(deadline) {
		if !mu.TryRLock() {
			gated = true
			break
		}
		mu.RUnlock() // writer not queued yet; retry
		time.Sleep(100 * time.Microsecond)
	}
	if !gated {
		t.Fatal("TryRLock never observed the writer-preference gate")
	}
	mu.RUnlock() // release the read hold so the writer can finish
}

// TestTryLockConcurrent: under contention TryLock must never grant two
// holders (the mutual-exclusion property of the probe path).
func TestTryLockConcurrent(t *testing.T) {
	rt := newTestRuntime(t, lcrt.Options{})
	mu := New("mutex", WithRuntime(rt))
	var holders atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if mu.TryLock() {
					if h := holders.Add(1); h != 1 {
						t.Errorf("%d holders inside critical section", h)
					}
					holders.Add(-1)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}
