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
	return 0
}

// newTestDB builds a DB over a fresh store whose latches wait under pol
// on a private load-control runtime, torn down with the test.
func newTestDB(t *testing.T, pol golc.ContentionPolicy, opts Options) *DB {
	t.Helper()
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
	rt.Start()
	t.Cleanup(rt.Stop)
	opts.Runtime = rt
	store := kv.New(kv.Options{Shards: 8, Policy: pol, Runtime: rt})
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
	if err := recvErr(t, writerDone, "queued writer"); err != nil {
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
	err := recvErr(t, midDone, "mid")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortTimeout {
		t.Fatalf("mid = %v, want timeout abort", err)
	}
	if err := recvErr(t, oldestDone, "oldest"); err != nil {
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

// recvErr takes the result another goroutine sends on ch, failing the
// test if none comes within 5s: a broken lock manager then fails the
// test in seconds rather than at go test's timeout.
func recvErr(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no result within 5s", what)
		return nil
	}
}

// TestLogicalBlameLabels pins the lock manager's blame vocabulary with
// every blocked acquire sampled: the waiter side names the resource
// class and the wanted mode, the holder side what the first blocker
// holds — a named mode, a slot's mode, or "queued" for a conflicting
// waiter the request queues behind.
func TestLogicalBlameLabels(t *testing.T) {
	// hasEdge reports whether db recorded blame from want to hold on
	// table tbl's logical locks.
	hasEdge := func(db *DB, tbl, want, hold string) bool {
		for _, e := range db.Recorder().BlameTop(-1) {
			if e.Lock == "oltp/"+tbl && e.Waiter == want && e.Holder == hold {
				return true
			}
		}
		return false
	}
	sampledDB := func(t *testing.T) *DB {
		db := newTestDB(t, golc.Block, Options{})
		db.Recorder().SetBlameSampling(1)
		return db
	}

	t.Run("named-holder", func(t *testing.T) {
		db := sampledDB(t)
		older, younger := db.Begin(), db.Begin()
		if _, _, err := younger.Read("tbl", "k"); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- older.Write("tbl", "k", "v") }()
		waitForCond(t, "X parked behind S", func() bool { return db.Metrics().LockWaits == 1 })
		younger.Abort()
		if err := recvErr(t, done, "X behind S"); err != nil {
			t.Fatal(err)
		}
		older.Abort()
		if !hasEdge(db, "tbl", "oltp:record(tbl)/want-X", "oltp:record(tbl)/hold-S") {
			t.Fatalf("no want-X/hold-S edge in %+v", db.Recorder().BlameTop(-1))
		}
	})

	t.Run("queued-waiter", func(t *testing.T) {
		db := sampledDB(t)
		// Oldest first: the reader, then the writer it will queue
		// behind, then the S holder the writer waits on.
		reader, writer, holder := db.Begin(), db.Begin(), db.Begin()
		if _, _, err := holder.Read("tbl", "k"); err != nil {
			t.Fatal(err)
		}
		wdone := make(chan error, 1)
		go func() { wdone <- writer.Write("tbl", "k", "v") }()
		waitForCond(t, "X parked behind S", func() bool { return db.Metrics().LockWaits == 1 })
		// The reader's S fits the holder's S; only the queued X is in
		// its way.
		rdone := make(chan error, 1)
		go func() {
			_, _, err := reader.Read("tbl", "k")
			rdone <- err
		}()
		waitForCond(t, "S parked behind queued X", func() bool { return db.Metrics().LockWaits == 2 })
		holder.Abort()
		if err := recvErr(t, wdone, "X behind S"); err != nil {
			t.Fatal(err)
		}
		writer.Abort()
		if err := recvErr(t, rdone, "S behind queued X"); err != nil {
			t.Fatal(err)
		}
		reader.Abort()
		if !hasEdge(db, "tbl", "oltp:record(tbl)/want-S", "oltp:record(tbl)/hold-queued") {
			t.Fatalf("no want-S/hold-queued edge in %+v", db.Recorder().BlameTop(-1))
		}
	})

	t.Run("slot-holder", func(t *testing.T) {
		db := sampledDB(t)
		id := PartitionID("t", 0)
		// The node's first request makes it on the latched path; the
		// next IX then lands in a slot.
		if err := db.Run(func(txn *Txn) error { return db.lm.acquire(txn, id, IS) }); err != nil {
			t.Fatal(err)
		}
		older, younger := db.Begin(), db.Begin()
		if err := db.lm.acquire(younger, id, IX); err != nil {
			t.Fatal(err)
		}
		if younger.held[0].slot == 0 {
			t.Fatal("IX at an existing node did not take a slot")
		}
		done := make(chan error, 1)
		go func() { done <- db.lm.acquire(older, id, S) }()
		waitForCond(t, "S parked behind a slot", func() bool { return db.Metrics().LockWaits == 1 })
		younger.Abort()
		if err := recvErr(t, done, "S behind a slot"); err != nil {
			t.Fatal(err)
		}
		older.Abort()
		if !hasEdge(db, "t", "oltp:partition(t)/want-S", "oltp:partition(t)/hold-IX") {
			t.Fatalf("no want-S/hold-IX edge in %+v", db.Recorder().BlameTop(-1))
		}
	})
}
