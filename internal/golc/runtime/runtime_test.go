package runtime

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/golc/obs"
)

func TestRegisterUnregisterConcurrent(t *testing.T) {
	rt := New(Options{Interval: time.Millisecond})
	rt.Start()
	defer rt.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h := rt.Register(fmt.Sprintf("lock-%d-%d", id, j))
				h.spinning.Add(1)
				h.spins.Add(1)
				h.spinning.Add(-1)
				h.Close()
			}
		}(i)
	}
	// Snapshot continuously while the registry churns.
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rt.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapper.Wait()
	if n := rt.Snapshot().LocksRegistered; n != 0 {
		t.Fatalf("registry not empty after churn: %d locks", n)
	}
}

func TestSleeperTimeoutPath(t *testing.T) {
	rt := New(Options{SleepTimeout: 20 * time.Millisecond})
	// Don't start the controller: force a target manually and claim.
	rt.setTarget(1)
	h := rt.Register("timeout")
	s := rt.trySleep(h, false, 0)
	if s == nil {
		t.Fatal("claim failed with open target")
	}
	start := time.Now()
	if !rt.sleep(s) {
		t.Fatal("sleep did not report the timeout")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("sleep returned before timeout without a wake")
	}
	snap := rt.Snapshot()
	if snap.TimeoutWakes != 1 || snap.Sleeping != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if ls := h.Stats(); ls.TimeoutWakes != 1 {
		t.Fatalf("per-lock stats = %+v", ls)
	}
}

func TestControllerWakePath(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(1)
	h := rt.Register("wake")
	s := rt.trySleep(h, false, 0)
	if s == nil {
		t.Fatal("claim failed")
	}
	done := make(chan struct{})
	go func() {
		rt.sleep(s)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	rt.setTarget(0) // must wake the sleeper promptly
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("controller wake did not release the sleeper")
	}
	snap := rt.Snapshot()
	if snap.ControllerWakes != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if ls := h.Stats(); ls.ControllerWakes != 1 {
		t.Fatalf("per-lock stats = %+v", ls)
	}
}

func TestTrySleepRespectsTarget(t *testing.T) {
	rt := New(Options{})
	h := rt.Register("target")
	if s := rt.trySleep(h, false, 0); s != nil {
		t.Fatal("claim succeeded with zero target")
	}
	rt.setTarget(2)
	s1 := rt.trySleep(h, false, 0)
	s2 := rt.trySleep(h, false, 0)
	s3 := rt.trySleep(h, false, 0)
	if s1 == nil || s2 == nil {
		t.Fatal("claims under target failed")
	}
	if s3 != nil {
		t.Fatal("claim beyond target succeeded")
	}
}

func TestParkHandoffConcurrent(t *testing.T) {
	// Many goroutines park and get woken while the target oscillates:
	// S/W accounting must balance (every claim S counts ends in exactly
	// one wake or cancel) and nobody may hang.
	rt := New(Options{SleepTimeout: 50 * time.Millisecond})
	h := rt.Register("handoff")
	var wg sync.WaitGroup
	var parked atomic.Uint64
	stop := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.spinning.Add(1)
				if s := h.claim(false, 0); s != nil {
					sleepClaim(s)
					parked.Add(1)
				}
				h.spinning.Add(-1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		rt.setTarget(16)
		time.Sleep(time.Millisecond)
		rt.setTarget(0)
	}
	close(stop)
	rt.setTarget(0) // release stragglers claimed after the last wake
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parked goroutines never drained")
	}
	snap := rt.Snapshot()
	if snap.Sleeping != 0 {
		t.Fatalf("sleepers leaked: %+v", snap)
	}
	if parked.Load() == 0 || snap.Claims == 0 {
		t.Fatal("no handoffs exercised")
	}
	if snap.ControllerWakes+snap.TimeoutWakes+snap.UnlockWakes+snap.Cancels != snap.Claims {
		t.Fatalf("wake accounting mismatch: %+v", snap)
	}
}

// TestSnapshotSleepingBoundedUnderChurn is the regression test for the
// S/W read-order race: Sleeping is S-W on uint64 counters, and loading
// S before W let a concurrent retirement wrap the difference into a
// huge value. Snapshot continuously while claims and wakes churn and
// assert Sleeping stays within its physical bounds.
func TestSnapshotSleepingBoundedUnderChurn(t *testing.T) {
	const bufCap = 64
	rt := New(Options{SleepTimeout: time.Millisecond})
	h := rt.Register("churn")
	rt.setTarget(bufCap)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				h.spinning.Add(1)
				if s := h.claim(false, 0); s != nil {
					// Alternate the two retirement paths.
					if n%2 == 0 {
						cancelClaim(s)
					} else {
						sleepClaim(s)
					}
				}
				h.spinning.Add(-1)
			}
		}()
	}
	wg.Add(1)
	go func() { // unlock-side wakes add a third retirement path
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.wakeOne(nil)
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		snap := rt.Snapshot()
		if snap.Sleeping < 0 || snap.Sleeping > bufCap {
			t.Errorf("Sleeping out of bounds: %d (cap %d)", snap.Sleeping, bufCap)
			break
		}
	}
	close(stop)
	rt.setTarget(0)
	wg.Wait()
	rt.setTarget(0) // drain any claim that raced the first drain
	if snap := rt.Snapshot(); snap.Sleeping != 0 {
		t.Fatalf("sleepers leaked: %+v", snap)
	}
}

// TestClaimRefusalMetric: a voluntary claim the target refuses counts
// once in ClaimRefusals; a forced claim never meets the target test,
// and a claim under the target is admitted.
func TestClaimRefusalMetric(t *testing.T) {
	const bufCap = 4
	rt := New(Options{})
	h := rt.Register("refused")
	if s := rt.trySleep(h, false, 0); s != nil {
		t.Fatal("claim admitted at target 0")
	}
	if s := rt.trySleep(h, true, 0); s == nil {
		t.Fatal("forced claim refused at target 0")
	}
	if n := rt.Snapshot().ClaimRefusals; n != 1 {
		t.Fatalf("at target 0: ClaimRefusals = %d, want 1", n)
	}
	rt.setTarget(bufCap)
	if s := rt.trySleep(h, false, 0); s == nil {
		t.Fatalf("claim refused at target %d: %+v", bufCap, rt.Snapshot())
	}
	if n := rt.Snapshot().ClaimRefusals; n != 1 {
		t.Fatalf("ClaimRefusals = %d after an admitted claim, want still 1", n)
	}
}

// TestUnlockWakePath exercises Handle.NoteUnlock end to end at the
// runtime layer: a parked waiter with no spinners left is woken by the
// unlock-side wake, not the controller and not the timeout.
func TestUnlockWakePath(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(1)
	h := rt.Register("unlock-wake")
	h.spinning.Add(1)
	s := h.claim(false, 0)
	if s == nil {
		t.Fatal("claim failed with open target")
	}
	done := make(chan struct{})
	go func() {
		sleepClaim(s)
		close(done)
	}()
	waitFor(t, "sleeper parked", func() bool { return rt.Snapshot().Sleeping == 1 })
	h.NoteUnlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("unlock-side wake did not release the sleeper")
	}
	h.spinning.Add(-1)
	snap := rt.Snapshot()
	if snap.UnlockWakes != 1 || snap.ControllerWakes != 0 || snap.TimeoutWakes != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if ls := h.Stats(); ls.UnlockWakes != 1 {
		t.Fatalf("per-lock stats = %+v", ls)
	}
}

// TestNoteUnlockSuppressedBySpinner: with an awake waiter present the
// unlock-side wake must not fire (the spinner takes the free lock).
func TestNoteUnlockSuppressedBySpinner(t *testing.T) {
	rt := New(Options{SleepTimeout: 50 * time.Millisecond})
	rt.setTarget(1)
	h := rt.Register("suppressed")
	h.spinning.Add(1) // the sleeper-to-be
	s := h.claim(false, 0)
	if s == nil {
		t.Fatal("claim failed")
	}
	done := make(chan struct{})
	go func() {
		sleepClaim(s)
		close(done)
	}()
	waitFor(t, "sleeper parked", func() bool { return rt.Snapshot().Sleeping == 1 })
	h.spinning.Add(1) // a second waiter, still spinning
	h.NoteUnlock()
	if n := rt.Snapshot().UnlockWakes; n != 0 {
		t.Fatalf("UnlockWakes = %d with a spinner present, want 0", n)
	}
	<-done // safety timeout releases the sleeper
	h.spinning.Add(-2)
}

// TestNoteReleaseWakesOtherSleeper: a claimant that releases a gate on
// its way to sleep (Wait's noteRelease after a PrePark that reports
// one) must wake some OTHER parked waiter, never its own fresh claim
// (which a plain NoteUnlock would pick), and must not wake at all when
// its own claim is the only one parked.
func TestNoteReleaseWakesOtherSleeper(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(2)
	h := rt.Register("release")

	// Only our own claim parked: no wake.
	h.spinning.Add(1)
	self := h.claim(false, 0)
	if self == nil {
		t.Fatal("claim failed")
	}
	h.noteRelease(self)
	if n := rt.Snapshot().UnlockWakes; n != 0 {
		t.Fatalf("NoteRelease woke its own claim: UnlockWakes=%d", n)
	}

	// An older sleeper exists: noteRelease from the newer claim must
	// wake the older one and leave its own claim parked.
	other := rt.trySleep(h, false, 0) // stands in for the stranded reader
	if other == nil {
		t.Fatal("second claim failed")
	}
	otherDone := make(chan struct{})
	go func() {
		rt.sleep(other)
		close(otherDone)
	}()
	waitFor(t, "both parked", func() bool { return rt.Snapshot().Sleeping == 2 })
	h.noteRelease(self)
	select {
	case <-otherDone:
	case <-time.After(2 * time.Second):
		t.Fatalf("noteRelease did not wake the other sleeper: %+v", rt.Snapshot())
	}
	snap := rt.Snapshot()
	if snap.UnlockWakes != 1 || snap.Sleeping != 1 {
		t.Fatalf("snapshot = %+v, want the other sleeper woken and ours still parked", snap)
	}
	cancelClaim(self)
	h.spinning.Add(-1)
}

// TestWaitFreeRecheckCancels: a waiter whose post-claim re-check finds
// the lock free cancels the claim and takes the lock without sleeping,
// under both parking modes. Try succeeds only once Free has been
// called, and nothing else can end a park here: the safety timeout is
// a minute and the pinned target leaves the controller no surplus to
// wake. A Wait that slept past a free re-check would hang.
func TestWaitFreeRecheckCancels(t *testing.T) {
	for _, mode := range []struct {
		name string
		park Park
	}{{"lc", ParkAdmitted}, {"block", ParkAlways}} {
		t.Run(mode.name, func(t *testing.T) {
			rt := New(Options{
				Interval:     time.Millisecond,
				SleepTimeout: time.Minute,
				LoadFunc:     func() int { return 1 },
			})
			rt.Start()
			defer rt.Stop()
			waitFor(t, "target 1", func() bool { return rt.Snapshot().Target == 1 })
			h := rt.Register("recheck")
			h.SetPolicy(mode.park)
			var checked atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.Wait(Acquire{
					Try:  checked.Load,
					Free: func() bool { checked.Store(true); return true },
				})
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("the waiter slept past a free re-check: %+v", h.Stats())
			}
			snap, ls := rt.Snapshot(), h.Stats()
			if ls.Blocks != 1 || snap.Cancels != 1 {
				t.Fatalf("blocks %d, cancels %d; want the one claim cancelled", ls.Blocks, snap.Cancels)
			}
			if ls.ControllerWakes+ls.UnlockWakes+ls.TimeoutWakes != 0 || ls.SpinningNow+ls.SleepingNow != 0 {
				t.Fatalf("per-lock stats = %+v, want no wake and no waiter left", ls)
			}
		})
	}
}

// TestWaitReadsPolicyOnce: a wait reads its lock's policy once, on
// entry. A waiter that began under spin keeps spinning through a flip
// to block, however many park checks it passes, and the next wait
// claims. Free always reports the lock free, so a claim cancels at once
// instead of sleeping: a wrong read shows as a Block, never as a hang.
func TestWaitReadsPolicyOnce(t *testing.T) {
	rt := New(Options{SleepTimeout: time.Minute})
	h := rt.Register("once")
	h.SetPolicy(ParkNever)
	var tries atomic.Int64
	var release atomic.Bool
	free := func() bool { return true }
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Wait(Acquire{Try: func() bool { tries.Add(1); return release.Load() }, Free: free})
	}()
	waitFor(t, "the waiter to spin", func() bool { return tries.Load() > 0 })
	rt.SetPolicy(ParkAlways)
	from := tries.Load()
	waitFor(t, "ten park checks after the flip", func() bool {
		return tries.Load() > from+graceSpins+10*parkCheckEvery
	})
	release.Store(true)
	<-done
	if st := h.Stats(); st.Blocks != 0 {
		t.Fatalf("the standing waiter claimed sleep %d times after the flip; it must finish under spin", st.Blocks)
	}
	n := 0
	h.Wait(Acquire{Try: func() bool { n++; return n > 2*graceSpins }, Free: free})
	if st := h.Stats(); st.ForcedClaims == 0 || st.Cancels != st.ForcedClaims {
		t.Fatalf("the next wait made %d forced claims (%d cancelled), want block's claims", st.ForcedClaims, st.Cancels)
	}
}

// TestWakeThrough: one call wakes, as unlock wakes, exactly the keyed
// waiters of the handle at or below its key. Every other sleeper — the
// handle's later keys and another handle's waiter — stays parked and
// counted, and a repeat call wakes nobody.
func TestWakeThrough(t *testing.T) {
	const n, k = 12, 5
	rt := New(Options{SleepTimeout: time.Minute})
	rt.setTarget(1)
	h := rt.Register("group")
	bystander := rt.Register("bystander")
	var wg sync.WaitGroup
	var mu sync.Mutex
	var woke []uint64
	park := func(h *Handle, forced bool, key uint64) {
		h.spinning.Add(1)
		s := h.claim(forced, key)
		if s == nil {
			t.Fatal("claim failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleepClaim(s)
			h.spinning.Add(-1)
			mu.Lock()
			woke = append(woke, key)
			mu.Unlock()
		}()
	}
	for key := uint64(1); key <= n; key++ {
		park(h, true, key)
	}
	park(bystander, false, 0)
	if got := h.WakeThrough(k); got != k {
		t.Fatalf("WakeThrough(%d) = %d, want %d", k, got, k)
	}
	if got := h.WakeThrough(k); got != 0 {
		t.Fatalf("second WakeThrough(%d) = %d, want 0", k, got)
	}
	waitFor(t, "keys 1..k retired", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(woke) >= k
	})
	mu.Lock()
	sort.Slice(woke, func(i, j int) bool { return woke[i] < woke[j] })
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke keys %v, want %v", woke, want)
	}
	mu.Unlock()
	if ls := h.Stats(); ls.SleepingNow != n-k || ls.UnlockWakes != k {
		t.Fatalf("handle stats = %+v, want %d still parked and %d unlock wakes", ls, n-k, k)
	}
	snap := rt.Snapshot()
	if snap.UnlockWakes != k || snap.TimeoutWakes+snap.ControllerWakes != 0 || snap.Sleeping != 1 {
		t.Fatalf("snapshot = %+v, want %d unlock wakes, no other, and the bystander asleep", snap, k)
	}
	if got := h.WakeThrough(n); got != n-k {
		t.Fatalf("WakeThrough(%d) = %d, want the %d left", n, got, n-k)
	}
	if !bystander.wakeOne(nil) {
		t.Fatal("bystander was not left parked")
	}
	wg.Wait()
}

// TestClaimCancel: a claim cancelled by its waiter's re-check retires
// cleanly (S/W balanced, off the parked list) and is counted as a
// cancel, not a wake.
func TestClaimCancel(t *testing.T) {
	rt := New(Options{})
	rt.setTarget(1)
	h := rt.Register("cancel")
	h.spinning.Add(1)
	s := h.claim(false, 0)
	if s == nil {
		t.Fatal("claim failed")
	}
	cancelClaim(s)
	h.spinning.Add(-1)
	snap := rt.Snapshot()
	if snap.Sleeping != 0 || snap.Cancels != 1 || snap.Claims != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ControllerWakes+snap.TimeoutWakes+snap.UnlockWakes != 0 {
		t.Fatalf("cancel was counted as a wake: %+v", snap)
	}
	// The target's room must be reusable immediately.
	if s := rt.trySleep(h, false, 0); s == nil {
		t.Fatal("claim after cancel failed")
	}
}

func TestStopUnstartedRuntime(t *testing.T) {
	rt := New(Options{})
	rt.Stop() // must not hang or panic
	rt.Stop() // idempotent
}

// TestStopWakesParkedWaiters: Stop wakes every sleeper — voluntary
// ones, forced ones (which no controller wake takes), and forced ones
// on a lock Closed before Stop — and refuses every claim after it.
func TestStopWakesParkedWaiters(t *testing.T) {
	for _, tc := range []struct {
		name           string
		forced, closed bool
	}{
		{"voluntary", false, false},
		{"forced", true, false},
		{"forced-closed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Options{
				Interval:     time.Millisecond,
				SleepTimeout: 10 * time.Second,
				LoadFunc:     func() int { return 4 },
			})
			rt.Start()
			h := rt.Register("shutdown")
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.spinning.Add(1)
					// Retry until the target opens (the first controller
					// tick may not have published it yet).
					s := h.claim(tc.forced, 0)
					for ; s == nil; s = h.claim(tc.forced, 0) {
						time.Sleep(100 * time.Microsecond)
					}
					sleepClaim(s)
					h.spinning.Add(-1)
				}()
			}
			waitFor(t, "4 sleepers parked", func() bool { return h.Stats().SleepingNow == 4 })
			if tc.closed {
				h.Close()
			}
			rt.Stop()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("Stop left waiters parked: %+v", h.Stats())
			}
			if h.claim(false, 0) != nil {
				t.Fatal("claim admitted after Stop")
			}
			if h.claim(true, 0) != nil {
				t.Fatal("forced claim admitted after Stop")
			}
		})
	}
}

// TestControllerWakeSpansHandles: a target decrease wakes exactly its
// surplus of voluntary sleepers, wherever they are parked, and leaves a
// forced sleeper parked.
func TestControllerWakeSpansHandles(t *testing.T) {
	const perHandle, k = 2, 4
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(3 * perHandle)
	hs := []*Handle{rt.Register("a"), rt.Register("b"), rt.Register("c")}
	var wg sync.WaitGroup
	park := func(h *Handle, forced bool) {
		h.spinning.Add(1)
		s := h.claim(forced, 0)
		if s == nil {
			t.Fatalf("claim on %s refused: %+v", h.Name(), rt.Snapshot())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleepClaim(s)
			h.spinning.Add(-1)
		}()
	}
	for _, h := range hs {
		for i := 0; i < perHandle; i++ {
			park(h, false)
		}
	}
	forced := hs[0]
	park(forced, true)
	parked := func() (n int64) {
		for _, h := range hs {
			n += h.Stats().SleepingNow
		}
		return n
	}
	waitFor(t, "all parked", func() bool { return parked() == 3*perHandle+1 })

	rt.setTarget(rt.sleeping() - k)
	waitFor(t, "the surplus retired", func() bool { return rt.Snapshot().Sleeping == 3*perHandle-k })
	if snap := rt.Snapshot(); snap.ControllerWakes != k {
		t.Fatalf("ControllerWakes = %d, want %d", snap.ControllerWakes, k)
	}
	if n := parked(); n != 3*perHandle+1-k {
		t.Fatalf("%d waiters parked after the wake, want %d", n, 3*perHandle+1-k)
	}
	// Each handle holds only perHandle voluntary sleepers, so k of them
	// come from more than one handle.
	spanned := 0
	for _, h := range hs {
		if h.Stats().ControllerWakes > 0 {
			spanned++
		}
	}
	if spanned < (k+perHandle-1)/perHandle {
		t.Fatalf("the wake reached %d handles, want at least %d", spanned, (k+perHandle-1)/perHandle)
	}
	forced.mu.Lock()
	kept := false
	for _, s := range forced.parked {
		kept = kept || s.forced
	}
	forced.mu.Unlock()
	if !kept {
		t.Fatal("the controller woke the forced sleeper")
	}
	rt.Stop() // drains the rest, the forced sleeper included
	wg.Wait()
}

// TestDefaultSensorTargetFollowsLoadSign: under the default sensor the
// target is maxTarget while the load is positive, and the
// load plus the current sleepers, clamped, otherwise. The OS term reads
// a fake /proc/loadavg, so each tick's sign is fixed whatever the
// machine running the test is doing; the run-queue term is this
// process's own and can only add. The spinner count is reported and
// is no input.
func TestDefaultSensorTargetFollowsLoadSign(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	ncpu := goruntime.NumCPU()
	sens, setRunning := fakeLoadavg(t, ncpu+2) // OSExcess = +1
	h := rt.Register("census")
	h.spinning.Add(5)
	defer h.spinning.Add(-5)

	tick := func() Snapshot {
		t.Helper()
		rt.update(sens)
		snap := rt.Snapshot()
		if want := int(snap.RunQueue) + snap.OSExcess; snap.Load != want {
			t.Fatalf("load = %d, want floor(%v)%+d = %d", snap.Load, snap.RunQueue, snap.OSExcess, want)
		}
		return snap
	}

	// Overloaded: maxTarget, not the magnitude of the load.
	snap := tick()
	if snap.OSExcess != 1 || snap.Load < 1 || snap.Target != maxTarget {
		t.Fatalf("overloaded tick: os %d, load %d, target %d; want 1, >= 1, %d",
			snap.OSExcess, snap.Load, snap.Target, maxTarget)
	}
	if snap.Spinners != 5 {
		t.Fatalf("spinners = %d, want 5 reported", snap.Spinners)
	}

	// Two waiters park under that target, and count against the budget
	// once the CPUs idle: the target is clamp(load + 2), and the
	// controller wakes the surplus in the same tick (so Sleeping is not
	// re-read after it).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		s := h.claim(false, 0)
		if s == nil {
			t.Fatalf("claim refused under the overloaded target: %+v", rt.Snapshot())
		}
		wg.Add(1)
		go func() { defer wg.Done(); sleepClaim(s) }()
	}
	setRunning(1) // OSExcess = -NumCPU
	// The run-queue term is real: a tick taken just after this process's
	// goroutines queued behind other processes' threads (go test ./...
	// runs packages side by side) reads load > 0 whatever the fake OS
	// term says. Such a tick only re-targets maxTarget, so re-tick until
	// one reads idle.
	for try := 0; ; try++ {
		snap = tick()
		if snap.OSExcess != -ncpu {
			t.Fatalf("idle tick: os %d, want %d", snap.OSExcess, -ncpu)
		}
		if snap.Load <= 0 {
			break
		}
		if try == 100 {
			t.Fatalf("idle tick: load %d after %d ticks; want <= 0", snap.Load, try+1)
		}
		time.Sleep(time.Millisecond)
	}
	if want := min(max(snap.Load+2, 0), maxTarget); snap.Target != want {
		t.Fatalf("target = %d, want clamp(load %d + sleeping 2) = %d", snap.Target, snap.Load, want)
	}
	if want := uint64(2 - snap.Target); snap.ControllerWakes != want {
		t.Fatalf("controller wakes = %d, want the %d sleepers past the target", snap.ControllerWakes, want)
	}
	rt.setTarget(0)
	wg.Wait()
}

func TestCustomLoadFunc(t *testing.T) {
	var excess atomic.Int64
	rt := New(Options{
		Interval: time.Millisecond,
		LoadFunc: func() int { return int(excess.Load()) },
	})
	rt.Start()
	defer rt.Stop()
	excess.Store(4)
	waitFor(t, "target=4", func() bool { return rt.Snapshot().Target == 4 })
	excess.Store(0)
	waitFor(t, "target=0", func() bool { return rt.Snapshot().Target == 0 })
}

func TestDefaultRuntimeSingleton(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default returned distinct runtimes")
	}
}

// TestWeakRegistrationReclaimsLeakedHandles is the LocksRegistered
// leak tripwire: handles registered without a Close must vanish from
// the registry once unreachable. Before weak registration this grew
// without bound (the ROADMAP open item this test retires).
func TestWeakRegistrationReclaimsLeakedHandles(t *testing.T) {
	rt := New(Options{})
	keep := rt.Register("keeper")
	const leaked = 512
	for i := 0; i < leaked; i++ {
		rt.Register(fmt.Sprintf("transient-%03d", i)) // deliberately dropped
	}
	// The leaked handles may already be gone (the loop's last iteration
	// aside); what matters is that after GC the registry converges to
	// the one live handle. Cleanups run asynchronously, but Snapshot
	// itself prunes entries whose weak pointer is dead, so one settled
	// GC round is enough in practice; poll to be robust.
	waitFor(t, "leaked handles reclaimed", func() bool {
		goruntime.GC()
		return rt.Snapshot().LocksRegistered == 1
	})
	snap := rt.Snapshot()
	if len(snap.Locks) != 1 || snap.Locks[0].Name != "keeper" {
		t.Fatalf("survivors = %+v", snap.Locks)
	}
	// Close still works on a live handle, and is idempotent with the
	// eventual GC cleanup.
	keep.Close()
	if n := rt.Snapshot().LocksRegistered; n != 0 {
		t.Fatalf("registry after Close = %d", n)
	}
}

// TestWaitersExposure: the spinning/sleeping point-in-time counts that
// LockStats carries for the /stats top-N view follow a waiter from
// spinning to claimed to retired.
func TestWaitersExposure(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(1)
	h := rt.Register("waiters")
	defer h.Close()
	now := func() (int64, int64) {
		ls := h.Stats()
		return ls.SpinningNow, ls.SleepingNow
	}
	h.spinning.Add(1)
	if sp, sl := now(); sp != 1 || sl != 0 {
		t.Fatalf("SpinningNow, SleepingNow = %d,%d after a waiter started spinning", sp, sl)
	}
	s := h.claim(false, 0)
	if s == nil {
		t.Fatal("claim failed with open target")
	}
	if sp, sl := now(); sp != 0 || sl != 1 {
		t.Fatalf("SpinningNow, SleepingNow = %d,%d after claim", sp, sl)
	}
	cancelClaim(s)
	h.spinning.Add(-1)
	if sp, sl := now(); sp != 0 || sl != 0 {
		t.Fatalf("SpinningNow, SleepingNow = %d,%d after cancel", sp, sl)
	}
}

// TestTopContended: ranking by parks + unlock wakes, stable ties,
// zero-contention locks dropped.
func TestTopContended(t *testing.T) {
	snap := Snapshot{Locks: []LockStats{
		{Name: "idle"},
		{Name: "warm", LockCounters: LockCounters{Blocks: 3}},
		{Name: "hot", LockCounters: LockCounters{Blocks: 10, UnlockWakes: 5}},
		{Name: "tie-b", LockCounters: LockCounters{Blocks: 3}},
		{Name: "busy", LockCounters: LockCounters{Blocks: 2, UnlockWakes: 9}},
	}}
	got := snap.TopContended(3)
	want := []string{"hot", "busy", "tie-b"}
	if len(got) != len(want) {
		t.Fatalf("TopContended = %+v", got)
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("TopContended[%d] = %q, want %q (full: %+v)", i, got[i].Name, name, got)
		}
	}
	if all := snap.TopContended(-1); len(all) != 4 {
		t.Fatalf("TopContended(-1) kept %d entries, want 4 (idle dropped)", len(all))
	}
}

// TestSnapshotTotalsFoldLocks: the runtime counts no event of its own
// beyond S and W, so every Snapshot counter total and the wait and hold
// histograms are the sum over the registered locks, a Closed lock
// included. Each of two locks goes through every counted event, so a
// total that skips a lock cannot match. The blame sample is drawn per
// lock: waits interleaved over two locks sample each once per 64 of its
// own, where one process-wide sequence would sample one lock twice and
// the other never.
func TestSnapshotTotalsFoldLocks(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	locks := []*Handle{rt.Register("fold-a"), rt.Register("fold-b")}
	for _, h := range locks {
		driveEveryCount(t, h)
		h.SetPolicy(ParkNever)
	}
	for i := 0; i < obs.DefaultBlameSampling; i++ {
		for _, h := range locks {
			tries := 0
			h.Wait(Acquire{Try: func() bool {
				tries++
				time.Sleep(time.Microsecond) // so the wait lasts a nonzero time
				return tries > 1
			}})
			h.RecordHold(rt.rec.Now())
		}
	}
	locks[1].Close()

	edges := rt.rec.BlameEdges()
	var sum LockCounters
	var waits, holds uint64
	for _, h := range locks {
		ls := h.Stats()
		var blamed, blamedNs uint64
		for _, e := range edges {
			if e.Lock == ls.Name {
				blamed += e.Count
				blamedNs += e.Ns
			}
		}
		if blamed != 1 || blamedNs == 0 {
			t.Errorf("%s: %d blame samples (%d ns) after %d+1 waits, want 1 (1-in-%d of its own waits)",
				ls.Name, blamed, blamedNs, obs.DefaultBlameSampling, obs.DefaultBlameSampling)
		}
		c := reflect.ValueOf(ls.LockCounters)
		for i := 0; i < c.NumField(); i++ {
			if c.Field(i).Uint() == 0 {
				t.Errorf("%s: %s never counted", ls.Name, c.Type().Field(i).Name)
			}
		}
		sum.Add(ls.LockCounters)
		waits += ls.Wait.Count
		holds += ls.Hold.Count
	}
	snap := rt.Snapshot()
	if len(snap.Locks) != 1 || snap.Locks[0].Name != "fold-a" {
		t.Fatalf("Locks = %+v, want only the open fold-a", snap.Locks)
	}
	if snap.LockCounters != sum {
		t.Fatalf("totals = %+v, want the sum over both locks %+v", snap.LockCounters, sum)
	}
	if snap.WaitHist.Count != waits || snap.HoldHist.Count != holds || waits == 0 || holds == 0 {
		t.Fatalf("WaitHist/HoldHist counts = %d/%d, want the per-lock sums %d/%d (nonzero)",
			snap.WaitHist.Count, snap.HoldHist.Count, waits, holds)
	}
}

// driveEveryCount takes h through each event LockCounters counts: a
// refused claim, a controller wake, an unlock wake, a forced claim that
// is cancelled, and a Wait whose park times out and then finds the lock
// free. The controller is not running, so the test sets the target.
func driveEveryCount(t *testing.T, h *Handle) {
	t.Helper()
	rt := h.rt
	rt.setTarget(0)
	if h.claim(false, 0) != nil {
		t.Fatal("claim admitted at target 0")
	}
	park := func(wake func()) {
		rt.setTarget(1)
		h.spinning.Add(1)
		s := h.claim(false, 0)
		if s == nil {
			t.Fatal("claim refused at target 1")
		}
		done := make(chan struct{})
		go func() { sleepClaim(s); close(done) }()
		waitFor(t, "sleeper parked", func() bool { return h.Stats().SleepingNow == 1 })
		wake()
		<-done
		h.spinning.Add(-1)
	}
	park(func() { rt.setTarget(0) })
	park(h.NoteUnlock)

	h.spinning.Add(1)
	s := h.claim(true, 0)
	if s == nil {
		t.Fatal("forced claim refused")
	}
	cancelClaim(s)
	h.spinning.Add(-1)

	// Nothing else runs now, so the timeout can be shortened in place.
	rt.setTarget(1)
	rt.opts.SleepTimeout = time.Millisecond
	frees := 0
	h.SetPolicy(ParkAdmitted)
	h.Wait(Acquire{
		Try:  func() bool { return frees > 1 },
		Free: func() bool { frees++; return frees > 1 },
	})
	rt.opts.SleepTimeout = 10 * time.Second
}

// sleepClaim and cancelClaim end a claim as Wait does, for tests that
// drive the protocol's steps by hand: the claim left the lock's
// spinners, and either end rejoins them.
func sleepClaim(s *sleeper) (timedOut bool) {
	timedOut = s.h.rt.sleep(s)
	s.h.spinning.Add(1)
	return timedOut
}

func cancelClaim(s *sleeper) {
	s.h.rt.cancel(s)
	s.h.spinning.Add(1)
}

// waitFor polls cond for up to 5s (spinning workers can starve the
// controller goroutine briefly, especially under -race).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within 5s", what)
}
