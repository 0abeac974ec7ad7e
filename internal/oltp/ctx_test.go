package oltp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/golc"
)

// TestCtxCancelWait: the caller's context ending a logical lock wait is
// terminal — the error wraps context.Canceled, is NOT an AbortError
// (Run retries those; nobody is waiting for a retry's answer), is
// counted in CtxCancels rather than any abort counter, and leaves the
// lock table clean.
func TestCtxCancelWait(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := RecordID("tbl", 0, "k")
	ctx, cancel := context.WithCancel(context.Background())
	older := db.BeginCtx(ctx) // older, so wait-die lets it wait
	younger := db.Begin()
	if err := db.lm.acquire(younger, id, X); err != nil {
		t.Fatalf("younger acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- db.lm.acquire(older, id, X) }()
	select {
	case err := <-done:
		t.Fatalf("older request returned before cancel: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled wait never returned")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf("caller cancellation must not be an AbortError (Run would retry it): %v", err)
	}
	m := db.Metrics()
	if m.CtxCancels != 1 {
		t.Fatalf("CtxCancels = %d, want 1", m.CtxCancels)
	}
	if m.TimeoutAborts != 0 || m.WaitDieAborts != 0 {
		t.Fatalf("cancellation miscredited: %+v", m)
	}
	older.Abort()
	younger.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d entries", n)
	}
}

// TestRunCtxCancelledBeforeAttempt: a context already cancelled stops
// RunCtx before fn ever runs.
func TestRunCtxCancelledBeforeAttempt(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := db.RunCtx(ctx, func(*Txn) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran under a cancelled context")
	}
}

// TestRunCtxCommits: RunCtx with a live context behaves exactly like
// Run — commit on nil return, effects visible afterwards.
func TestRunCtxCommits(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	if err := db.RunCtx(context.Background(), func(tx *Txn) error {
		return tx.Write("tbl", "k", "v")
	}); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	var got string
	if err := db.Run(func(tx *Txn) error {
		v, ok, err := tx.Read("tbl", "k")
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("committed write not visible")
		}
		got = v
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "v" {
		t.Fatalf("read %q, want %q", got, "v")
	}
}
