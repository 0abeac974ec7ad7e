package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
				h.Spinning(1)
				h.NoteSpins(1)
				h.Spinning(-1)
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
	if rt.spinners.Load() != 0 {
		t.Fatalf("census nonzero after churn: %d", rt.spinners.Load())
	}
}

func TestSleeperTimeoutPath(t *testing.T) {
	rt := New(Options{SleepTimeout: 20 * time.Millisecond})
	// Don't start the controller: force a target manually and claim.
	rt.setTarget(1)
	h := rt.Register("timeout")
	s := rt.trySleep(h, false)
	if s == nil {
		t.Fatal("claim failed with open target")
	}
	start := time.Now()
	rt.sleep(s, nil)
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
	s := rt.trySleep(h, false)
	if s == nil {
		t.Fatal("claim failed")
	}
	done := make(chan struct{})
	go func() {
		rt.sleep(s, nil)
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
	if s := rt.trySleep(h, false); s != nil {
		t.Fatal("claim succeeded with zero target")
	}
	rt.setTarget(2)
	s1 := rt.trySleep(h, false)
	s2 := rt.trySleep(h, false)
	s3 := rt.trySleep(h, false)
	if s1 == nil || s2 == nil {
		t.Fatal("claims under target failed")
	}
	if s3 != nil {
		t.Fatal("claim beyond target succeeded")
	}
}

func TestSlotPoolHandoffConcurrent(t *testing.T) {
	// Many goroutines park and get woken while the target oscillates:
	// S/W accounting must balance and nobody may hang.
	rt := New(Options{SleepTimeout: 50 * time.Millisecond, BufferCap: 64})
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
				h.Spinning(1)
				if tk, ok := h.TryClaim(); ok {
					tk.Sleep()
					parked.Add(1)
				}
				h.Spinning(-1)
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
	rt := New(Options{SleepTimeout: time.Millisecond, BufferCap: bufCap})
	h := rt.Register("churn")
	rt.setTarget(bufCap)
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
				h.Spinning(1)
				if tk, ok := h.TryClaim(); ok {
					// Alternate the two retirement paths.
					if tk.s.idx%2 == 0 {
						tk.Cancel()
					} else {
						tk.Sleep()
					}
				}
				h.Spinning(-1)
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
				h.WakeOne()
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

// TestTrySleepScansPastOccupiedSlots is the regression test for the
// old wrap-placement bug: a claim whose S-mod-cap slot was occupied
// was refused even though wakes had left holes elsewhere in the pool.
func TestTrySleepScansPastOccupiedSlots(t *testing.T) {
	rt := New(Options{BufferCap: 2})
	hA := rt.Register("a")
	hB := rt.Register("b")
	rt.setTarget(2)
	sa := rt.trySleep(hA, false) // slot 0
	sb := rt.trySleep(hB, false) // slot 1
	if sa == nil || sb == nil {
		t.Fatal("initial claims failed")
	}
	// Wake B (slot 1) and retire it; slot 0 stays occupied by A. The
	// old placement computed idx = S % cap = 2 % 2 = 0 — occupied —
	// and refused, despite slot 1 being free.
	if !hB.WakeOne() {
		t.Fatal("WakeOne found no sleeper for B")
	}
	rt.sleep(sb, nil) // retires immediately: channel already closed
	sc := rt.trySleep(hB, false)
	if sc == nil {
		t.Fatalf("claim refused with a free slot in the pool: %+v", rt.Snapshot())
	}
	if sc.idx != 1 {
		t.Fatalf("claim placed at slot %d, want the freed slot 1", sc.idx)
	}
	if rejects := rt.Snapshot().SlotRejects; rejects != 0 {
		t.Fatalf("SlotRejects = %d, want 0", rejects)
	}
}

// TestSlotRejectMetric forces a genuinely full pool and checks the
// rejected claim is counted.
func TestSlotRejectMetric(t *testing.T) {
	rt := New(Options{BufferCap: 2})
	h := rt.Register("full")
	rt.setTarget(2)
	if rt.trySleep(h, false) == nil || rt.trySleep(h, false) == nil {
		t.Fatal("claims under target failed")
	}
	// Both physical slots are occupied; raise the logical target past
	// the physical population by hand so only placement can refuse.
	rt.target.Store(3)
	if s := rt.trySleep(h, false); s != nil {
		t.Fatal("claim succeeded with a full pool")
	}
	if rejects := rt.Snapshot().SlotRejects; rejects != 1 {
		t.Fatalf("SlotRejects = %d, want 1", rejects)
	}
}

// TestUnlockWakePath exercises Handle.NoteUnlock end to end at the
// runtime layer: a parked waiter with no spinners left is woken by the
// unlock-side wake, not the controller and not the timeout.
func TestUnlockWakePath(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(1)
	h := rt.Register("unlock-wake")
	h.Spinning(1)
	tk, ok := h.TryClaim()
	if !ok {
		t.Fatal("claim failed with open target")
	}
	done := make(chan struct{})
	go func() {
		tk.Sleep()
		close(done)
	}()
	waitFor(t, "sleeper parked", func() bool { return rt.Snapshot().Sleeping == 1 })
	h.NoteUnlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("unlock-side wake did not release the sleeper")
	}
	h.Spinning(-1)
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
	h.Spinning(1) // the sleeper-to-be
	tk, ok := h.TryClaim()
	if !ok {
		t.Fatal("claim failed")
	}
	done := make(chan struct{})
	go func() {
		tk.Sleep()
		close(done)
	}()
	waitFor(t, "sleeper parked", func() bool { return rt.Snapshot().Sleeping == 1 })
	h.Spinning(1) // a second waiter, still spinning
	h.NoteUnlock()
	if n := rt.Snapshot().UnlockWakes; n != 0 {
		t.Fatalf("UnlockWakes = %d with a spinner present, want 0", n)
	}
	<-done // safety timeout releases the sleeper
	h.Spinning(-2)
}

// TestNoteReleaseWakesOtherSleeper: a claimant that releases a gate on
// its way to sleep must wake some OTHER parked waiter, never its own
// freshly claimed slot (which a plain NoteUnlock would pick), and must
// not wake at all when its own claim is the only one parked.
func TestNoteReleaseWakesOtherSleeper(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(2)
	h := rt.Register("release")

	// Only our own claim parked: no wake.
	h.Spinning(1)
	self, ok := h.TryClaim()
	if !ok {
		t.Fatal("claim failed")
	}
	self.NoteRelease()
	if n := rt.Snapshot().UnlockWakes; n != 0 {
		t.Fatalf("NoteRelease woke its own claim: UnlockWakes=%d", n)
	}

	// An older sleeper exists: NoteRelease from the newer claim must
	// wake the older one and leave its own slot parked.
	other := rt.trySleep(h, false) // stands in for the stranded reader
	if other == nil {
		t.Fatal("second claim failed")
	}
	otherDone := make(chan struct{})
	go func() {
		rt.sleep(other, nil)
		close(otherDone)
	}()
	waitFor(t, "both parked", func() bool { return rt.Snapshot().Sleeping == 2 })
	self.NoteRelease()
	select {
	case <-otherDone:
	case <-time.After(2 * time.Second):
		t.Fatalf("NoteRelease did not wake the other sleeper: %+v", rt.Snapshot())
	}
	snap := rt.Snapshot()
	if snap.UnlockWakes != 1 || snap.Sleeping != 1 {
		t.Fatalf("snapshot = %+v, want the other sleeper woken and ours still parked", snap)
	}
	self.Cancel()
	h.Spinning(-1)
}

// TestWakeAll: one call wakes every parked waiter of the handle — the
// voluntary and the forced alike, and nobody else's — as unlock wakes,
// and leaves their slots free.
func TestWakeAll(t *testing.T) {
	const n = 12
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(n)
	h := rt.Register("group")
	bystander := rt.Register("bystander")
	var wg sync.WaitGroup
	park := func(h *Handle, claim func(*Handle) (Ticket, bool)) {
		h.Spinning(1)
		tk, ok := claim(h)
		if !ok {
			t.Fatal("claim failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Sleep()
			h.Spinning(-1)
		}()
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			park(h, (*Handle).TryClaim)
		} else {
			park(h, (*Handle).ClaimForced)
		}
	}
	park(bystander, (*Handle).TryClaim)
	if got := h.WakeAll(); got != n {
		t.Fatalf("WakeAll = %d, want %d", got, n)
	}
	if got := h.WakeAll(); got != 0 {
		t.Fatalf("second WakeAll = %d, want 0", got)
	}
	waitFor(t, "the group retired", func() bool { return rt.Snapshot().Sleeping == 1 })
	snap := rt.Snapshot()
	if snap.UnlockWakes != n || h.Stats().UnlockWakes != n || snap.TimeoutWakes+snap.ControllerWakes != 0 {
		t.Fatalf("snapshot = %+v, want %d unlock wakes and no other", snap, n)
	}
	if _, sleeping := h.Waiters(); sleeping != 0 {
		t.Fatalf("handle still counts %d sleepers", sleeping)
	}
	rt.mu.Lock()
	occupied := 0
	for _, s := range rt.slots {
		if s != nil {
			occupied++
		}
	}
	rt.mu.Unlock()
	if occupied != 1 {
		t.Fatalf("%d slots occupied after WakeAll, want only the bystander's", occupied)
	}
	if !bystander.WakeOne() {
		t.Fatal("bystander was not left parked")
	}
	wg.Wait()
}

// TestTicketCancel: a cancelled claim retires cleanly (S/W balanced,
// slot free) and is counted as a cancel, not a wake.
func TestTicketCancel(t *testing.T) {
	rt := New(Options{})
	rt.setTarget(1)
	h := rt.Register("cancel")
	h.Spinning(1)
	tk, ok := h.TryClaim()
	if !ok {
		t.Fatal("claim failed")
	}
	tk.Cancel()
	h.Spinning(-1)
	snap := rt.Snapshot()
	if snap.Sleeping != 0 || snap.Cancels != 1 || snap.Claims != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ControllerWakes+snap.TimeoutWakes+snap.UnlockWakes != 0 {
		t.Fatalf("cancel was counted as a wake: %+v", snap)
	}
	// The slot must be reusable immediately.
	if s := rt.trySleep(h, false); s == nil {
		t.Fatal("claim after cancel failed")
	}
}

func TestStopUnstartedRuntime(t *testing.T) {
	rt := New(Options{})
	rt.Stop() // must not hang or panic
	rt.Stop() // idempotent
}

func TestStopWakesParkedWaiters(t *testing.T) {
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
			h.Spinning(1)
			// Retry until a slot opens (the first controller tick may
			// not have published the target yet).
			tk, ok := h.TryClaim()
			for ; !ok; tk, ok = h.TryClaim() {
				time.Sleep(100 * time.Microsecond)
			}
			tk.Sleep()
			h.Spinning(-1)
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for rt.Snapshot().Sleeping < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("sleepers never accumulated: %+v", rt.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left waiters parked")
	}
}

// TestDefaultSensorTargetsLoadPlusSleeping: under the default sensor
// the target is the measured load plus the current sleepers, clamped —
// checked against the inputs the tick itself reports, since the load of
// the machine running the test is not ours to fix. The spinner census
// is reported and is no input.
func TestDefaultSensorTargetsLoadPlusSleeping(t *testing.T) {
	rt := New(Options{})
	sens := newSensor(loadavgPath)
	defer sens.close()
	h := rt.Register("census")
	h.Spinning(5)
	defer h.Spinning(-5)

	check := func(sleeping int) {
		t.Helper()
		rt.update(sens)
		snap := rt.Snapshot()
		if want := int(snap.RunQueue) + snap.OSExcess; snap.Load != want {
			t.Fatalf("load = %d, want floor(%v)%+d = %d", snap.Load, snap.RunQueue, snap.OSExcess, want)
		}
		if want := min(max(snap.Load+sleeping, 0), len(rt.slots)); snap.Target != want {
			t.Fatalf("target = %d, want clamp(load %d + sleeping %d) = %d", snap.Target, snap.Load, sleeping, want)
		}
	}
	check(0)
	if got := rt.Snapshot().Spinners; got != 5 {
		t.Fatalf("spinners = %d, want 5 reported", got)
	}

	// Two parked waiters count against the budget whatever the load is
	// (a negative one wakes them, so Sleeping is not re-read after).
	rt.setTarget(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		tk, ok := h.TryClaim()
		if !ok {
			t.Fatal("claim refused under target 2")
		}
		wg.Add(1)
		go func() { defer wg.Done(); tk.Sleep() }()
	}
	check(2)
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

// TestWaitersExposure: the spinning/sleeping point-in-time counts used
// for deadlock bookkeeping and the /stats top-N view.
func TestWaitersExposure(t *testing.T) {
	rt := New(Options{SleepTimeout: 10 * time.Second})
	rt.setTarget(1)
	h := rt.Register("waiters")
	defer h.Close()
	h.Spinning(1)
	if sp, sl := h.Waiters(); sp != 1 || sl != 0 {
		t.Fatalf("Waiters = %d,%d after Spinning(1)", sp, sl)
	}
	tk, ok := h.TryClaim()
	if !ok {
		t.Fatal("claim failed with open target")
	}
	if sp, sl := h.Waiters(); sp != 0 || sl != 1 {
		t.Fatalf("Waiters = %d,%d after claim", sp, sl)
	}
	ls := h.Stats()
	if ls.SpinningNow != 0 || ls.SleepingNow != 1 {
		t.Fatalf("Stats now-counts = %+v", ls)
	}
	tk.Cancel()
	h.Spinning(-1)
	if sp, sl := h.Waiters(); sp != 0 || sl != 0 {
		t.Fatalf("Waiters = %d,%d after cancel", sp, sl)
	}
}

// TestTopContended: ranking by parks + unlock wakes, stable ties,
// zero-contention locks dropped.
func TestTopContended(t *testing.T) {
	snap := Snapshot{Locks: []LockStats{
		{Name: "idle"},
		{Name: "warm", Blocks: 3},
		{Name: "hot", Blocks: 10, UnlockWakes: 5},
		{Name: "tie-b", Blocks: 3},
		{Name: "busy", Blocks: 2, UnlockWakes: 9},
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
