package golc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lcrt "repro/internal/golc/runtime"
)

// sleepyPolicy is the conformance suite's user-defined toy policy:
// poll-then-nap with a fixed backoff, no runtime parking at all. It
// exists to prove the ContentionPolicy surface is implementable from
// outside the built-in set: it reaches locks by value (WithPolicy,
// SetPolicy) and the suite sweeps it beside the built-ins.
type sleepyPolicy struct{}

func (sleepyPolicy) Name() string { return "test-sleepy" }

func (sleepyPolicy) Wait(ctx context.Context, h *lcrt.Handle, a Acquire) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	h.Spinning(1)
	defer h.Spinning(-1)
	spins := 0
	for {
		if a.Try() {
			h.NoteSpins(spins)
			return nil
		}
		spins++
		select {
		case <-done:
			h.NoteSpins(spins)
			return ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
	}
}

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

// TestPolicyByName pins the by-name surface: the closed set of
// built-ins resolves, anything else — a custom policy's name included —
// is refused with the set listed, and a custom policy goes in by value.
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
	for _, name := range []string{"nonsense", "", sleepyPolicy{}.Name()} {
		if _, err := PolicyByName(name); err == nil || !strings.Contains(err.Error(), "[block lc spin]") {
			t.Fatalf("PolicyByName(%q) = %v, want an error listing the built-ins", name, err)
		}
	}
	mu := New("by-value", WithPolicy(sleepyPolicy{}), WithRuntime(conformanceRuntime(t)))
	if got := mu.Stats().Policy; got != "test-sleepy" {
		t.Fatalf("WithPolicy(custom): stats report policy %q", got)
	}
	mu.SetPolicy(Spin)
	mu.SetPolicy(sleepyPolicy{})
	if got := mu.Policy().Name(); got != "test-sleepy" {
		t.Fatalf("SetPolicy(custom): Policy() = %q", got)
	}
}

// conformancePolicies is what the suite sweeps: the three built-ins,
// resolved by name, plus the toy sleepy policy.
func conformancePolicies(t *testing.T) []ContentionPolicy {
	t.Helper()
	pols := []ContentionPolicy{sleepyPolicy{}}
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

// TestPolicyConformanceLockCtx: a waiter blocked mid-wait — mid-park
// for the parking policies — must return ctx.Err() promptly on
// cancellation, leave the lock usable, and restore the census.
func TestPolicyConformanceLockCtx(t *testing.T) {
	eachPolicy(t, func(t *testing.T, rt *lcrt.Runtime, pol ContentionPolicy) {
		for _, variant := range []struct {
			name    string
			lockCtx func(mu *RWMutex, ctx context.Context) error
		}{
			{"LockCtx", func(mu *RWMutex, ctx context.Context) error { return mu.LockCtx(ctx) }},
			{"RLockCtx", func(mu *RWMutex, ctx context.Context) error { return mu.RLockCtx(ctx) }},
		} {
			t.Run(variant.name, func(t *testing.T) {
				mu := NewRW("conf-ctx", WithPolicy(pol), WithRuntime(rt))
				mu.Lock() // readers and writers both blocked
				ctx, cancel := context.WithCancel(context.Background())
				errc := make(chan error, 1)
				go func() { errc <- variant.lockCtx(mu, ctx) }()
				// Wait until the waiter is visibly mid-wait (spinning or
				// parked) before cancelling: that is the case that used
				// to have no exit.
				deadline := time.Now().Add(5 * time.Second)
				for {
					if st := mu.Stats(); st.SpinningNow > 0 || st.SleepingNow > 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("waiter never started waiting")
					}
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
				select {
				case err := <-errc:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("LockCtx = %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("cancelled waiter never returned: %+v", mu.Stats())
				}
				if st := mu.Stats(); st.SpinningNow != 0 || st.SleepingNow != 0 {
					t.Fatalf("census not restored after cancellation: %+v", st)
				}
				// The lock must be fully usable afterwards.
				mu.Unlock()
				if err := mu.LockCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
				mu.Unlock()
				mu.RLock()
				mu.RUnlock()
			})
		}
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
		// Give parking policies time to actually park (the sleepy and
		// spin policies just wait their cadence out).
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

// TestPolicyConformanceWaitRecorded: the wait-time seam is golc.Wait,
// outside every policy, so each policy — including the user-defined
// sleepy one, which never touches the runtime's park path — must feed
// the per-lock and global wait histograms on a contended acquisition,
// for free. LockNested goes through the same seam under Spin whatever
// the lock's policy: it is recorded like any wait, and never parks.
func TestPolicyConformanceWaitRecorded(t *testing.T) {
	// One lock as the test needs it: the first hold, the contended
	// acquire under test, the release of either.
	type lock struct {
		lock, acquire, unlock func()
		stats                 func() lcrt.LockStats
	}
	variants := []struct {
		name   string
		nested bool
		new    func(rt *lcrt.Runtime, pol ContentionPolicy) lock
	}{
		{"Mutex.Lock", false, func(rt *lcrt.Runtime, pol ContentionPolicy) lock {
			mu := New("conf-wait-obs", WithPolicy(pol), WithRuntime(rt))
			return lock{mu.Lock, mu.Lock, mu.Unlock, mu.Stats}
		}},
		{"RWMutex.LockNested", true, func(rt *lcrt.Runtime, pol ContentionPolicy) lock {
			mu := NewRW("conf-wait-obs-nested", WithPolicy(pol), WithRuntime(rt))
			return lock{mu.Lock, mu.LockNested, mu.Unlock, mu.Stats}
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
				// The suite's runtime asks for 8 sleepers, so lc and block
				// would park here; a nested acquire spins instead.
				if variant.nested && (st.Spins == 0 || st.Blocks != 0) {
					t.Fatalf("LockNested on a %s lock: spins/blocks = %d/%d, want >0/0", pol.Name(), st.Spins, st.Blocks)
				}
			})
		}
	})
}

// TestPolicyHotSwap flips a contended lock between every pair of
// conformance policies while workers hammer it: no lost update, no
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

// TestCancelledSpinnerDoesNotStrandParkedWaiter: a spinner that leaves
// on cancellation may be the spinner a concurrent unlock counted on to
// take the lock (NoteUnlock skips its wake while one is spinning). It
// must pass the wake on, or the parked waiter sits on a free lock until
// the safety timeout. Each round parks one waiter (the target has room
// for exactly one), stands cancellable spinners beside it, and cancels
// and unlocks back to back.
func TestCancelledSpinnerDoesNotStrandParkedWaiter(t *testing.T) {
	const rounds, spinners = 100, 3
	// One lock seen as the test needs it: the holder's exclusive hold,
	// the cancellable acquire under test and its release.
	type lock struct {
		lock, unlock func()
		lockCtx      func(context.Context) error
		unlockCtx    func()
		stats        func() lcrt.LockStats
	}
	for _, variant := range []struct {
		name string
		new  func(rt *lcrt.Runtime) lock
	}{
		{"Mutex.LockCtx", func(rt *lcrt.Runtime) lock {
			mu := New("cancel-strand", WithRuntime(rt))
			return lock{mu.Lock, mu.Unlock, mu.LockCtx, mu.Unlock, mu.Stats}
		}},
		{"RWMutex.RLockCtx", func(rt *lcrt.Runtime) lock {
			mu := NewRW("cancel-strand-rw", WithRuntime(rt))
			return lock{mu.Lock, mu.Unlock, mu.RLockCtx, mu.RUnlock, mu.Stats}
		}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			rt := newTestRuntime(t, lcrt.Options{
				Interval:     time.Millisecond,
				SleepTimeout: 5 * time.Second, // a strand fails its round long before this
				LoadFunc:     func() int { return 1 },
			})
			waitFor(t, "target 1", func() bool { return rt.Snapshot().Target == 1 })
			mu := variant.new(rt)
			for round := 0; round < rounds; round++ {
				mu.lock()
				parked := make(chan struct{})
				go func() {
					if err := mu.lockCtx(context.Background()); err != nil {
						t.Error(err)
					}
					mu.unlockCtx()
					close(parked)
				}()
				waitFor(t, "the waiter to park", func() bool { return mu.stats().SleepingNow == 1 })
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for i := 0; i < spinners; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if mu.lockCtx(ctx) == nil {
							mu.unlockCtx()
						}
					}()
				}
				waitFor(t, "the spinners", func() bool { return mu.stats().SpinningNow == spinners })
				cancel()
				mu.unlock()
				select {
				case <-parked:
				case <-time.After(2 * time.Second):
					t.Fatalf("round %d: parked waiter stranded on a free lock: %+v", round, mu.stats())
				}
				wg.Wait()
			}
			if snap := rt.Snapshot(); snap.TimeoutWakes != 0 {
				t.Fatalf("a waiter fell back to the safety timeout: %+v", snap)
			}
		})
	}
}
