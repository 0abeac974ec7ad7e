package oltp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
)

// latchPolicies are the names the per-policy subtests run under;
// "load-control" and "std" are the subtests' names for lc and block.
var latchPolicies = []string{"load-control", "spin", "std"}

func policyNamed(t *testing.T, name string) golc.ContentionPolicy {
	t.Helper()
	switch name {
	case "load-control":
		return golc.LoadControlled
	case "spin":
		return golc.Spin
	case "std":
		return golc.Block
	}
	t.Fatalf("no latch policy for subtest name %q", name)
	return nil
}

// newTestDB builds a DB over a fresh store whose latches wait under pol
// on a private load-control runtime, torn down with the test.
func newTestDB(t *testing.T, pol golc.ContentionPolicy, opts Options) *DB {
	t.Helper()
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
	rt.Start()
	t.Cleanup(rt.Stop)
	opts.Runtime = rt
	store := kv.New(kv.Options{Shards: 8, IndexStripes: 4, Policy: pol, Runtime: rt})
	t.Cleanup(store.Close)
	db := New(store, opts)
	t.Cleanup(db.Close)
	return db
}

// TestCompatMatrixTable pins the full Gray compatibility matrix and
// the lattice that goes with it: compat must be symmetric, lub
// commutative and idempotent, and covers consistent with lub.
func TestCompatMatrixTable(t *testing.T) {
	modes := []Mode{IS, IX, S, SIX, X}
	want := map[[2]Mode]bool{
		{IS, IS}: true, {IS, IX}: true, {IS, S}: true, {IS, SIX}: true, {IS, X}: false,
		{IX, IX}: true, {IX, S}: false, {IX, SIX}: false, {IX, X}: false,
		{S, S}: true, {S, SIX}: false, {S, X}: false,
		{SIX, SIX}: false, {SIX, X}: false,
		{X, X}: false,
	}
	for _, a := range modes {
		for _, b := range modes {
			exp, ok := want[[2]Mode{a, b}]
			if !ok {
				exp = want[[2]Mode{b, a}]
			}
			if compat[a][b] != exp {
				t.Errorf("compat[%v][%v] = %v, want %v", a, b, compat[a][b], exp)
			}
			if compat[a][b] != compat[b][a] {
				t.Errorf("compat not symmetric at (%v,%v)", a, b)
			}
			if lub[a][b] != lub[b][a] {
				t.Errorf("lub not commutative at (%v,%v)", a, b)
			}
			// The join must grant both inputs.
			j := lub[a][b]
			if !covers(j, a) || !covers(j, b) {
				t.Errorf("lub(%v,%v)=%v does not cover both", a, b, j)
			}
		}
		if lub[a][a] != a || !covers(a, a) {
			t.Errorf("lattice not idempotent at %v", a)
		}
		if !compat[ModeNone][a] || !compat[a][ModeNone] {
			t.Errorf("ModeNone must be compatible with %v", a)
		}
	}
	if lub[S][IX] != SIX {
		t.Errorf("lub(S,IX) = %v, want SIX", lub[S][IX])
	}
}

// TestCompatMatrixLive drives every mode pair through the live lock
// manager: an older holder in mode a, then a younger requester in mode
// b — compatible pairs coexist, incompatible pairs wait-die the
// younger immediately. This is the integration form of the matrix.
func TestCompatMatrixLive(t *testing.T) {
	modes := []Mode{IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			t.Run(fmt.Sprintf("%v-then-%v", a, b), func(t *testing.T) {
				db := newTestDB(t, golc.Block, Options{})
				id := PartitionID("tbl", 3)
				older := db.Begin()
				younger := db.Begin()
				defer older.Abort()
				defer younger.Abort()
				if err := db.lm.acquire(older, id, a); err != nil {
					t.Fatalf("older acquire(%v): %v", a, err)
				}
				err := db.lm.acquire(younger, id, b)
				if compat[a][b] {
					if err != nil {
						t.Fatalf("compatible pair (%v,%v) errored: %v", a, b, err)
					}
				} else {
					var ae *AbortError
					if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
						t.Fatalf("incompatible pair (%v,%v): got %v, want wait-die abort", a, b, err)
					}
					if !errors.Is(err, ErrAborted) {
						t.Fatal("AbortError must match ErrAborted via errors.Is")
					}
				}
			})
		}
	}
}

// TestWaitDieOlderWaits: the older transaction must WAIT (not die) on
// a younger holder, and be granted when the holder releases.
func TestWaitDieOlderWaits(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := RecordID("tbl", 0, "k")
	older := db.Begin()
	younger := db.Begin()
	if err := db.lm.acquire(younger, id, X); err != nil {
		t.Fatalf("younger acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- db.lm.acquire(older, id, X) }()
	// The older txn must still be waiting, not dead.
	select {
	case err := <-done:
		t.Fatalf("older request returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	younger.Abort() // releases X, grants the older waiter
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("older request failed after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("older waiter never granted after release")
	}
	if got := db.Metrics().LockWaits; got != 1 {
		t.Fatalf("LockWaits = %d, want 1", got)
	}
	older.Abort()
	if n := db.lm.entries(); n != 0 {
		t.Fatalf("lock table not empty after release: %d entries", n)
	}
}

// TestWaitTimeoutBackstop: a wait the holder never resolves ends in a
// timeout abort, counted separately from wait-die.
func TestWaitTimeoutBackstop(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{WaitTimeout: 30 * time.Millisecond})
	id := RecordID("tbl", 0, "k")
	older := db.Begin()
	younger := db.Begin()
	defer older.Abort()
	defer younger.Abort()
	if err := db.lm.acquire(younger, id, X); err != nil {
		t.Fatalf("younger acquire: %v", err)
	}
	start := time.Now()
	err := db.lm.acquire(older, id, S)
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortTimeout {
		t.Fatalf("got %v, want timeout abort", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timeout abort fired before the deadline")
	}
	m := db.Metrics()
	if m.TimeoutAborts != 1 || m.WaitDieAborts != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestQueueFairnessGate: a new request compatible with the holders
// must still queue (or die) behind an incompatible waiter, or writers
// would starve — and wait-die must age-check against that waiter.
func TestQueueFairnessGate(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := RecordID("tbl", 0, "k")
	writer := db.Begin()   // tid 1: oldest, so its X request queues
	reader := db.Begin()   // tid 2: holds S
	lateRead := db.Begin() // tid 3: younger than the queued writer
	if err := db.lm.acquire(reader, id, S); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- db.lm.acquire(writer, id, X) }()
	waitForCond(t, "writer queued", func() bool { return db.Metrics().LockWaits == 1 })
	// lateRead is compatible with the S holder but conflicts with the
	// queued X waiter, and is younger than it: wait-die must kill it
	// rather than let it jump the queue or deadlock behind it.
	err := db.lm.acquire(lateRead, id, S)
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("late reader: got %v, want wait-die abort", err)
	}
	lateRead.Abort()
	reader.Abort() // S released: writer granted
	if err := <-writerDone; err != nil {
		t.Fatalf("queued writer failed: %v", err)
	}
	writer.Abort()
	if n := db.lm.entries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestTimeoutWaiterRemovalGrantsQueue: when a timed-out waiter leaves
// the queue, waiters gated only by IT must be granted immediately —
// the timeout path has the same grant duty as releaseAll. (Regression:
// the first version forgot the grant and stranded them until their own
// timeout.)
func TestTimeoutWaiterRemovalGrantsQueue(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{WaitTimeout: 100 * time.Millisecond})
	id := RecordID("tbl", 0, "k")
	oldest := db.Begin() // tid 1
	mid := db.Begin()    // tid 2
	holder := db.Begin() // tid 3: youngest, holds S throughout
	defer oldest.Abort()
	defer mid.Abort()
	defer holder.Abort()
	if err := db.lm.acquire(holder, id, S); err != nil {
		t.Fatal(err)
	}
	midDone := make(chan error, 1)
	go func() { midDone <- db.lm.acquire(mid, id, X) }() // conflicts holder, older: queues
	waitForCond(t, "mid queued", func() bool { return db.Metrics().LockWaits == 1 })
	oldestDone := make(chan error, 1)
	// Compatible with the S holder, gated ONLY by mid's queued X. The
	// sleep is the gap between the two timeouts: without it they are a
	// poll apart and a late wake of mid lets oldest's own timer win.
	time.Sleep(50 * time.Millisecond)
	go func() { oldestDone <- db.lm.acquire(oldest, id, S) }()
	waitForCond(t, "oldest queued", func() bool { return db.Metrics().LockWaits == 2 })
	// mid's timeout fires ~50ms before oldest's would; its removal must
	// hand oldest the lock instead of stranding it to its own timeout.
	err := <-midDone
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortTimeout {
		t.Fatalf("mid = %v, want timeout abort", err)
	}
	if err := <-oldestDone; err != nil {
		t.Fatalf("oldest must be granted when the gating waiter leaves, got %v", err)
	}
}

// waitForCond polls cond for up to 5s.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition %q not reached within 5s", what)
}
