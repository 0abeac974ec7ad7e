package oltp

import (
	"context"
	"testing"
	"time"

	"repro/internal/golc"
)

// grantRacingWake drives acquireAt's resolution under the stripe latch
// when a grant races the wake of a waiter whose context ended. A younger
// transaction holds X; an older one, on ctx, waits for X. Once the wait
// is queued the test takes the stripe latch itself. end then ends the
// wait's context, and the test waits for the waiter to miss the latch:
// the waiter has taken the ctx arm of its select and blocks on the latch
// the test holds. Still under the latch the test drops the younger's
// hold and settles the head, which grants the waiter. The waiter must
// return the lock held and leave the latch free, which the test probes
// with TryLock, so a leaked latch fails at once instead of hanging.
func grantRacingWake(t *testing.T, ctx context.Context, opts Options, end func()) {
	db := newTestDB(t, golc.Block, opts)
	id := RecordID("tbl", 0, "k")
	older := db.BeginCtx(ctx) // older, so wait-die lets it wait
	younger := db.Begin()
	if err := db.lm.acquire(younger, id, X); err != nil {
		t.Fatalf("younger acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- db.lm.acquire(older, id, X) }()
	waitForCond(t, "the older request to queue", func() bool { return db.Metrics().LockWaits == 1 })

	hash := hashID(id)
	st := db.lm.stripeFor(hash)
	st.latch.Lock()
	l := st.head(id, hash)
	if len(l.waiters) != 1 {
		st.latch.Unlock()
		t.Fatalf("%d waiters under the latch, want 1: the wait ended before the test held the latch", len(l.waiters))
	}
	misses := db.Metrics().LatchMisses
	end()
	waitForCond(t, "the woken waiter to miss the latch", func() bool { return db.Metrics().LatchMisses > misses })
	// What release does for the younger, under the latch the test holds.
	l.drop(younger)
	younger.held = younger.held[:0]
	st.settle(l)
	st.latch.Unlock()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("granted wait returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("granted wait never returned")
	}
	if !st.latch.TryLock() {
		t.Fatal("stripe latch still held after the granted wait returned")
	}
	st.latch.Unlock()
	if m := older.heldMode(id); m != X {
		t.Fatalf("older holds %v, want X", m)
	}
	if m := db.Metrics(); m.CtxCancels != 0 || m.TimeoutAborts != 0 || m.WaitDieAborts != 0 {
		t.Fatalf("a granted wait was counted as an abort: %+v", m)
	}
	older.Abort()
	younger.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d entries", n)
	}
}

// TestGrantWinsOverCancel: the caller cancels the wait's context, and the
// grant lands before the waiter retakes the latch.
func TestGrantWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	grantRacingWake(t, ctx, Options{WaitTimeout: time.Minute}, cancel)
}

// TestGrantWinsOverTimeout: the wait's backstop fires, and the grant
// lands before the waiter retakes the latch. The timeout is long enough
// for the test to take the latch first; the helper fails, rather than
// passes, if it does not.
func TestGrantWinsOverTimeout(t *testing.T) {
	grantRacingWake(t, context.Background(), Options{WaitTimeout: 100 * time.Millisecond}, func() {})
}
