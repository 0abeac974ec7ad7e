package golc

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lcrt "repro/internal/golc/runtime"
)

// conformanceRuntime: a constant-high load signal so the lc policy
// genuinely parks during the suite, plus a sleep timeout short enough
// that a lost wakeup converts into visible TimeoutWakes rather than a
// hang.
func conformanceRuntime(t *testing.T) *lcrt.Runtime {
	t.Helper()
	rt := lcrt.New(lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: 500 * time.Millisecond,
		LoadFunc:     func() int { return 8 },
	})
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// TestPolicyByName pins the by-name surface and the defaults: the
// closed set resolves and every name round-trips, anything else is
// refused with the set listed, and the zero policy — what a lock built
// without WithPolicy runs — is lc.
func TestPolicyByName(t *testing.T) {
	names := PolicyNames()
	if !slices.Equal(names, []string{"block", "lc", "spin"}) {
		t.Fatalf("PolicyNames() = %v", names)
	}
	for _, name := range names {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range []string{"nonsense", "", "load-control"} {
		if _, err := PolicyByName(name); err == nil || !strings.Contains(err.Error(), "[block lc spin]") {
			t.Fatalf("PolicyByName(%q) = %v, want an error listing the set", name, err)
		}
	}
	var zero ContentionPolicy
	if zero != LoadControlled || zero.Name() != "lc" {
		t.Fatalf("zero ContentionPolicy = %d %q, want LoadControlled", zero, zero.Name())
	}
	rt := conformanceRuntime(t)
	for _, st := range []lcrt.LockStats{New("default", WithRuntime(rt)).Stats(), NewRW("default-rw", WithRuntime(rt)).Stats()} {
		if st.Policy != "lc" {
			t.Fatalf("%s built without WithPolicy reports policy %q, want lc", st.Name, st.Policy)
		}
	}
}

// conformancePolicies is what the suite sweeps: the three policies,
// resolved by name.
func conformancePolicies(t *testing.T) []ContentionPolicy {
	t.Helper()
	var pols []ContentionPolicy
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, pol)
	}
	return pols
}

// eachPolicy runs f once per conformance policy, each under its own
// runtime.
func eachPolicy(t *testing.T, f func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy)) {
	for _, pol := range conformancePolicies(t) {
		t.Run(pol.Name(), func(t *testing.T) {
			f(t, conformanceRuntime(t), pol)
		})
	}
}

// TestPolicyConformanceMutex: mutual exclusion under every
// conformance policy, with enough contention that parking policies actually park.
func TestPolicyConformanceMutex(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		mu := New("conf-mu", WithPolicy(pol), WithRuntime(rt))
		const workers, iters = 8, 2000
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
	})
}

// TestPolicyConformanceRWMutex: writer exclusion plus reader sharing
// under every policy.
func TestPolicyConformanceRWMutex(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		mu := NewRW("conf-rw", WithPolicy(pol), WithRuntime(rt))
		var readers atomic.Int32
		value := 0
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for j := 0; j < 1000; j++ {
					mu.RLock()
					readers.Add(1)
					_ = value
					readers.Add(-1)
					mu.RUnlock()
				}
			}()
			go func() {
				defer wg.Done()
				for j := 0; j < 500; j++ {
					mu.Lock()
					if r := readers.Load(); r != 0 {
						panic(fmt.Sprintf("writer saw %d active readers", r))
					}
					value++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if value != 2000 {
			t.Fatalf("value = %d, want 2000", value)
		}
	})
}

// TestPolicyConformanceTryLock: TryLock semantics are policy-free (a
// failed probe touches nothing), but every policy's lock must expose
// them identically.
func TestPolicyConformanceTryLock(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		mu := New("conf-try", WithPolicy(pol), WithRuntime(rt))
		if !mu.TryLock() {
			t.Fatal("TryLock failed on a free lock")
		}
		if mu.TryLock() {
			t.Fatal("TryLock succeeded on a held lock")
		}
		if st := mu.Stats(); st.Spins != 0 || st.Blocks != 0 {
			t.Fatalf("failed TryLock touched runtime state: %+v", st)
		}
		mu.Unlock()
		if !mu.TryLock() {
			t.Fatal("TryLock failed after Unlock")
		}
		mu.Unlock()
	})
}

// TestPolicyConformanceNoLostWakeup: a waiter that commits to waiting
// on a held lock must acquire promptly after the release — whatever
// the policy parked it on — far inside the 500ms safety timeout.
func TestPolicyConformanceNoLostWakeup(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		mu := New("conf-wake", WithPolicy(pol), WithRuntime(rt))
		mu.Lock()
		acquired := make(chan struct{})
		go func() {
			mu.Lock()
			mu.Unlock()
			close(acquired)
		}()
		// Give parking policies time to actually park (spin just waits
		// its cadence out).
		deadline := time.Now().Add(time.Second)
		for mu.Stats().SpinningNow == 0 && mu.Stats().SleepingNow == 0 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never showed up")
			}
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(10 * time.Millisecond)
		start := time.Now()
		mu.Unlock()
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter stranded after unlock: %+v", mu.Stats())
		}
		if handoff := time.Since(start); handoff > 2*time.Second {
			t.Fatalf("handoff took %v", handoff)
		}
	})
}

// TestPolicyConformanceStatsMonotonic: per-lock counters are
// cumulative and must never decrease while a workload hammers the
// lock.
func TestPolicyConformanceStatsMonotonic(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		mu := New("conf-stats", WithPolicy(pol), WithRuntime(rt))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
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
					busy := time.Now().Add(time.Microsecond)
					for time.Now().Before(busy) {
					}
					mu.Unlock()
				}
			}()
		}
		var prev lcrt.LockStats
		for i := 0; i < 50; i++ {
			st := mu.Stats()
			if st.Spins < prev.Spins || st.Blocks < prev.Blocks ||
				st.ControllerWakes < prev.ControllerWakes ||
				st.TimeoutWakes < prev.TimeoutWakes ||
				st.UnlockWakes < prev.UnlockWakes {
				t.Fatalf("counters went backwards: %+v -> %+v", prev, st)
			}
			prev = st
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
	})
}

// TestPolicyConformanceWaitRecorded: the wait-time seam is the
// runtime's Handle.Wait, around every policy's loop, so each policy —
// spin included, which never touches the runtime's park path — must
// feed the per-lock and global wait histograms on a contended
// acquisition, on either lock type.
func TestPolicyConformanceWaitRecorded(t *testing.T) {
	// One lock as the test needs it: the first hold, the contended
	// acquire under test, the release of either.
	type lock struct {
		lock, acquire, unlock func()
		stats                 func() lcrt.LockStats
	}
	variants := []struct {
		name string
		new  func(rt *lcrt.Runtime, pol ContentionPolicy) lock
	}{
		{"Mutex.Lock", func(rt *lcrt.Runtime, pol ContentionPolicy) lock {
			mu := New("conf-wait-obs", WithPolicy(pol), WithRuntime(rt))
			return lock{mu.Lock, mu.Lock, mu.Unlock, mu.Stats}
		}},
		{"RWMutex.Lock", func(rt *lcrt.Runtime, pol ContentionPolicy) lock {
			mu := NewRW("conf-wait-obs-rw", WithPolicy(pol), WithRuntime(rt))
			return lock{mu.Lock, mu.Lock, mu.Unlock, mu.Stats}
		}},
	}
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		rt.Recorder().SetHoldSampling(1) // stamp every hold, not 1-in-256
		for _, variant := range variants {
			t.Run(variant.name, func(t *testing.T) {
				mu := variant.new(rt, pol)
				mu.lock()
				acquired := make(chan struct{})
				go func() {
					mu.acquire()
					mu.unlock()
					close(acquired)
				}()
				waitFor(t, "the waiter to start waiting", func() bool {
					st := mu.stats()
					return st.SpinningNow != 0 || st.SleepingNow != 0
				})
				time.Sleep(2 * time.Millisecond) // accumulate measurable wait time
				mu.unlock()
				select {
				case <-acquired:
				case <-time.After(5 * time.Second):
					t.Fatalf("waiter stranded after unlock: %+v", mu.stats())
				}
				st := mu.stats()
				if st.Wait.Count == 0 {
					t.Fatalf("policy %s recorded no wait samples", pol.Name())
				}
				if st.Wait.Sum < uint64(time.Millisecond) {
					t.Fatalf("policy %s wait sum = %v, want >= the ~2ms the waiter visibly waited",
						pol.Name(), time.Duration(st.Wait.Sum))
				}
				// Sampling 1-in-1 makes every hold stamped: both the initial
				// hold and the waiter's must have been recorded on release.
				if st.Hold.Count < 2 {
					t.Fatalf("policy %s recorded %d hold samples, want >= 2", pol.Name(), st.Hold.Count)
				}
				if snap := rt.Snapshot(); snap.WaitHist.Count < st.Wait.Count {
					t.Fatalf("global wait histogram (%d) missing the lock's samples (%d)",
						snap.WaitHist.Count, st.Wait.Count)
				}
			})
		}
	})
}

// TestPolicyHotSwap flips a contended lock between every pair of
// policies while workers hammer it: no lost update, no
// stranded waiter, and the getter reports the last policy set.
func TestPolicyHotSwap(t *testing.T) {
	rt := conformanceRuntime(t)
	mu := New("swap", WithPolicy(Spin), WithRuntime(rt))
	var counter atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
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
				counter.Add(1)
				mu.Unlock()
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for _, p := range conformancePolicies(t) {
			name := p.Name()
			mu.SetPolicy(p)
			if got := mu.Policy().Name(); got != name {
				t.Fatalf("Policy() = %q after SetPolicy(%q)", got, name)
			}
			before := counter.Load()
			deadline := time.Now().Add(5 * time.Second)
			for counter.Load() == before {
				if time.Now().After(deadline) {
					t.Fatalf("no progress under %q after hot-swap", name)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// graceSpins is the runtime's grace spin: a parking wait's spins before
// its first claim.
const graceSpins = 128

// TestLCFollowsTheTarget: the controller's target is lc's only reason
// to park. At target 0 a waiter spins however long the hold lasts and
// never claims; at target 8 it parks as soon as its grace spin is over.
func TestLCFollowsTheTarget(t *testing.T) {
	for _, load := range []int{0, 8} {
		t.Run(fmt.Sprintf("load=%d", load), func(t *testing.T) {
			rt := newTestRuntime(t, lcrt.Options{
				Interval:     time.Millisecond,
				SleepTimeout: 10 * time.Second,
				LoadFunc:     func() int { return load },
			})
			waitFor(t, "the first controller tick", func() bool {
				s := rt.Snapshot()
				return s.Updates > 0 && s.Target == load
			})
			mu := New("lc-target", WithRuntime(rt))
			mu.Lock()
			acquired := make(chan struct{})
			go func() {
				mu.Lock()
				mu.Unlock()
				close(acquired)
			}()
			if load == 0 {
				waitFor(t, "the waiter to spin", func() bool { return mu.Stats().SpinningNow == 1 })
				time.Sleep(20 * time.Millisecond) // thousands of spins past the grace
			} else {
				waitFor(t, "the waiter to park", func() bool { return mu.Stats().SleepingNow == 1 })
			}
			mu.Unlock()
			select {
			case <-acquired:
			case <-time.After(5 * time.Second):
				t.Fatalf("waiter stranded after unlock: %+v", mu.Stats())
			}
			st, snap := mu.Stats(), rt.Snapshot()
			if load == 0 {
				if st.Blocks != 0 || snap.Claims != 0 || snap.Cancels != 0 {
					t.Fatalf("lc claimed a slot at target 0: %+v", snap)
				}
				return
			}
			if st.Blocks != 1 || st.UnlockWakes != 1 {
				t.Fatalf("blocks/unlock-wakes = %d/%d, want 1/1", st.Blocks, st.UnlockWakes)
			}
			// The park came at the first claim check past the grace; the
			// unlock wake hands over a free lock, so little is spun after.
			if st.Spins < graceSpins || st.Spins > 2*graceSpins {
				t.Fatalf("spins = %d, want about the grace spin (%d)", st.Spins, graceSpins)
			}
		})
	}
}

// TestTimeoutWakeFoundFree: a park that the safety timeout ends counts
// as TimeoutWakesFree only if the lock is free when the waiter looks
// again — a release that skipped its wake. The flag stands in for a
// lock, and PrePark runs after the post-claim re-check. Released, it
// clears the flag without NoteUnlock, so nothing but the 5ms backstop
// can end that park. Held, the backstop ends the first park on a held
// flag, and the next PrePark releases it the way a lock does, with the
// unlock-side wake: the order is fixed, so no later timeout can find
// the flag free. Block parks on its first claim, and the controller
// never wakes a forced sleeper.
func TestTimeoutWakeFoundFree(t *testing.T) {
	for _, released := range []bool{true, false} {
		t.Run(fmt.Sprintf("released=%v", released), func(t *testing.T) {
			rt := newTestRuntime(t, lcrt.Options{SleepTimeout: 5 * time.Millisecond})
			h := rt.Register("flag")
			var held atomic.Bool
			held.Store(true)
			h.SetPolicy(Block)
			h.Wait(lcrt.Acquire{
				Try:  func() bool { return held.CompareAndSwap(false, true) },
				Free: func() bool { return !held.Load() },
				PrePark: func() bool {
					switch {
					case released:
						held.Store(false)
					case h.Stats().TimeoutWakes > 0:
						held.Store(false)
						h.NoteUnlock()
					}
					return false
				},
			})
			st, snap := h.Stats(), rt.Snapshot()
			want := uint64(0)
			if released {
				want = 1
			}
			if st.TimeoutWakes == 0 || st.TimeoutWakesFree != want || snap.TimeoutWakesFree != want {
				t.Fatalf("timeout wakes %d, free %d (runtime %d), want free %d",
					st.TimeoutWakes, st.TimeoutWakesFree, snap.TimeoutWakesFree, want)
			}
		})
	}
}

// TestWriterParkWakesGatedReader: a writer that drops its
// writer-preference gate on its way to sleep wakes a reader parked
// behind that gate; without the wake both sleep on a lock nobody holds
// for writing. The writer waits under lc at target 0, so it spins
// while a reader parks (Block: the controller never wakes it) on the
// raised gate behind a read hold. At target 8 the writer parks, and
// only its PrePark's release wake can reach the reader before the
// minute-long safety timeout.
func TestWriterParkWakesGatedReader(t *testing.T) {
	var load atomic.Int64
	rt := newTestRuntime(t, lcrt.Options{
		Interval:     time.Millisecond,
		SleepTimeout: time.Minute,
		LoadFunc:     func() int { return int(load.Load()) },
	})
	mu := NewRW("gate", WithRuntime(rt))
	mu.RLock()
	writer := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock()
		close(writer)
	}()
	waitFor(t, "the writer to spin", func() bool { return mu.Stats().SpinningNow == 1 })
	mu.SetPolicy(Block)
	reader := make(chan struct{})
	go func() {
		mu.RLock()
		close(reader)
	}()
	waitFor(t, "the reader to park", func() bool { return mu.Stats().SleepingNow == 1 })
	load.Store(8)
	select {
	case <-reader:
	case <-time.After(5 * time.Second):
		t.Fatalf("the parked reader was never woken: %+v", mu.Stats())
	}
	if st := mu.Stats(); st.UnlockWakes != 1 || st.SleepingNow != 1 {
		t.Fatalf("unlock wakes %d, sleeping %d; want the reader woken and the writer still parked",
			st.UnlockWakes, st.SleepingNow)
	}
	mu.RUnlock() // the woken reader's hold
	mu.RUnlock() // the first hold: wakes the writer
	select {
	case <-writer:
	case <-time.After(5 * time.Second):
		t.Fatalf("the writer was stranded: %+v", mu.Stats())
	}
}
