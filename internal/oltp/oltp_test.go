package oltp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/golc"
)

// TestRunCallerAborted: fn aborting the transaction itself and then
// returning nil must surface ErrCallerAborted, not the old confusing
// ErrTxnDone from Run's blind Commit. (Regression for the
// finished-transaction bug in DB.Run.)
func TestRunCallerAborted(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	err := db.Run(func(txn *Txn) error {
		if err := txn.Write("tbl", "k", "v"); err != nil {
			return err
		}
		txn.Abort()
		return nil
	})
	if !errors.Is(err, ErrCallerAborted) {
		t.Fatalf("Run = %v, want ErrCallerAborted", err)
	}
	if errors.Is(err, ErrTxnDone) {
		t.Fatal("the confusing ErrTxnDone leaked out of Run again")
	}
	if _, ok := db.Store().Get("tbl/k"); ok {
		t.Fatal("aborted write reached the store")
	}
	m := db.Metrics()
	if m.Commits != 0 || m.Aborts != 1 || m.Retries != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRunFnCommitsItself: fn committing the transaction itself and
// returning nil is success — Run must not call Commit again (which
// returned ErrTxnDone and made the whole Run look failed).
func TestRunFnCommitsItself(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	err := db.Run(func(txn *Txn) error {
		if err := txn.Write("tbl", "k", "self"); err != nil {
			return err
		}
		return txn.Commit()
	})
	if err != nil {
		t.Fatalf("Run after self-commit = %v, want nil", err)
	}
	if v, ok := db.Store().Get("tbl/k"); !ok || v != "self" {
		t.Fatalf("store = %q,%v", v, ok)
	}
	if m := db.Metrics(); m.Commits != 1 || m.Aborts != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRunSwallowedAbortRetries: fn that swallows a lock-manager
// AbortError (returns nil after a failed op) must NOT have its partial
// work committed — Run detects the kill order on the transaction,
// rolls back, and retries under the original timestamp, whether fn
// left the transaction active or aborted it itself.
func TestRunSwallowedAbortRetries(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{MaxRetries: -1})
	blocker := db.Begin() // tid 1: older, holds X on k
	if err := blocker.Write("tbl", "k", "blocker"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- db.Run(func(txn *Txn) error { // tid 2: younger, wait-dies
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			err := txn.Write("tbl", "k", "victim")
			if err == nil {
				return nil
			}
			switch n % 2 {
			case 1:
				return nil // swallow, leave the txn active
			default:
				txn.Abort() // swallow and roll back ourselves
				return nil
			}
		})
	}()
	waitForCond(t, "swallowed aborts retried", func() bool { return db.Metrics().Retries >= 3 })
	if _, ok := db.Store().Get("tbl/k"); ok {
		t.Fatal("a swallowed-abort attempt committed partial work")
	}
	if err := blocker.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("victim never succeeded: %v", err)
	}
	if v, _ := db.Store().Get("tbl/k"); v != "victim" {
		t.Fatalf("store = %q, want victim's write", v)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestCommitRefusesKillOrder: a transaction the lock manager told to
// abort must not be able to commit its partial write-set, even if the
// caller swallows the acquire error and calls Commit directly — Commit
// rolls back and returns the original kill order, and via Run the
// attempt is retried like any other abort.
func TestCommitRefusesKillOrder(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{MaxRetries: -1})
	blocker := db.Begin() // older, holds X on "locked"
	if err := blocker.Write("tbl", "locked", "b"); err != nil {
		t.Fatal(err)
	}
	// Direct API: swallow the wait-die abort, try to commit anyway.
	victim := db.Begin()
	if err := victim.Write("tbl", "partial", "v"); err != nil {
		t.Fatal(err)
	}
	if err := victim.Write("tbl", "locked", "v"); !errors.Is(err, ErrAborted) {
		t.Fatalf("conflicting write = %v, want abort", err)
	}
	err := victim.Commit()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("Commit after kill order = %v, want the AbortError back", err)
	}
	if _, ok := db.Store().Get("tbl/partial"); ok {
		t.Fatal("kill-ordered transaction committed partial work")
	}
	if m := db.Metrics(); m.Commits != 0 || m.Aborts != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// Through Run: fn swallows the abort AND self-commits; Run must
	// retry (Commit aborted the attempt) and succeed once unblocked.
	done := make(chan error, 1)
	go func() {
		done <- db.Run(func(txn *Txn) error {
			if err := txn.Write("tbl", "partial", "r"); err != nil {
				return err
			}
			_ = txn.Write("tbl", "locked", "r") // swallowed
			_ = txn.Commit()                    // refused while kill-ordered
			return nil
		})
	}()
	waitForCond(t, "swallowed self-commit retried", func() bool { return db.Metrics().Retries >= 2 })
	if err := blocker.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run never succeeded: %v", err)
	}
	if v, _ := db.Store().Get("tbl/locked"); v != "r" {
		t.Fatalf("tbl/locked = %q, want the retried txn's write", v)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestMaxRetriesZero: MaxRetries: 0 must genuinely mean zero retries —
// the first abort is terminal — instead of being silently rewritten to
// 100. (Regression for the sentinel-default bug.)
func TestMaxRetriesZero(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{MaxRetries: 0})
	blocker := db.Begin() // older: the younger Run below wait-dies
	if err := blocker.Write("tbl", "k", "b"); err != nil {
		t.Fatal(err)
	}
	err := db.Run(func(txn *Txn) error {
		return txn.Write("tbl", "k", "r")
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Run = %v, want terminal abort", err)
	}
	if !strings.Contains(err.Error(), "after 1 attempts") {
		t.Fatalf("Run = %v, want giving up after exactly 1 attempt", err)
	}
	if m := db.Metrics(); m.Retries != 0 {
		t.Fatalf("Retries = %d with MaxRetries=0", m.Retries)
	}
	blocker.Abort()
}

// TestMaxRetriesBounded: a positive bound is the retry count, so
// MaxRetries: 2 means three attempts total.
func TestMaxRetriesBounded(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{MaxRetries: 2})
	blocker := db.Begin()
	if err := blocker.Write("tbl", "k", "b"); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err := db.Run(func(txn *Txn) error {
		attempts++
		return txn.Write("tbl", "k", "r")
	})
	if !errors.Is(err, ErrAborted) || attempts != 3 {
		t.Fatalf("Run = %v after %d attempts, want abort after 3", err, attempts)
	}
	if m := db.Metrics(); m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
	blocker.Abort()
}

// TestReadPartitionInsertVsConcurrentPut: a transaction's buffered
// insert must appear in its own ReadPartition exactly once, with the
// transaction's value, no matter what non-transactional writes to the
// same key land concurrently. (Regression: the overlay used a latched
// store.Get per buffered write to decide "already overlaid"; a Put
// sneaking in between ScanShard and that Get made the insert look
// present-in-scan and silently dropped it. The seen-key set built from
// the scan output closes the window by construction — and drops the
// per-write shard-latch traffic.)
func TestReadPartitionInsertVsConcurrentPut(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	// A fresh key in partition 0 that the txn inserts but never commits.
	var fresh string
	for i := 0; ; i++ {
		k := fmt.Sprintf("f%05d", i)
		if db.Store().ShardOf(storageKey("t", k)) == 0 {
			fresh = k
			break
		}
	}
	txn := db.Begin()
	if err := txn.Write("t", fresh, "mine"); err != nil {
		t.Fatal(err)
	}
	// Non-transactional churn on the same key (single-key kv ops bypass
	// logical locking by design; read-your-writes must survive anyway).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sk := storageKey("t", fresh)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				db.Store().Put(sk, "external")
			} else {
				db.Store().Delete(sk)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		rows, err := txn.ReadPartition("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, r := range rows {
			if r.Key == fresh {
				found++
				if r.Value != "mine" {
					t.Fatalf("iteration %d: own insert read back as %q", i, r.Value)
				}
			}
		}
		if found != 1 {
			t.Fatalf("iteration %d: own buffered insert appeared %d times, want exactly 1", i, found)
		}
	}
	close(stop)
	wg.Wait()
	txn.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}
