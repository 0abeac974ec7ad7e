package oltp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
	"repro/internal/kv"
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
	if err := recvErr(t, done, "victim"); err != nil {
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
	if err := recvErr(t, done, "retried Run"); err != nil {
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

// TestRunRecycledTxnStartsClean: DB.Run recycles its Txn records, so
// whatever an earlier Run leaves on its record must not reach the next
// Run handed that record. After each kind of dirt, the next Run must see
// no buffered write, carry no kill order (so it commits rather than
// retrying; MaxRetries 0 makes a retry a failure), hold nothing, in
// arrays no bigger than heldScan, share it with no other Run, and wait
// on a lock until its holder commits — not until the earlier Run's
// cancelled context says stop.
//
// A record is reused only most of the time (the pool drops some under
// -race), so each case repeats until the clean Run got the dirty one's.
func TestRunRecycledTxnStartsClean(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{MaxRetries: 0, EscalationThreshold: -1})
	errBoom := errors.New("boom")
	for _, c := range []struct {
		name string
		// dirty runs a Run that leaves its record dirty, recording the
		// record in *rec and checking what the Run returned.
		dirty func(t *testing.T, rec **Txn)
	}{
		{"buffered write then fn error", func(t *testing.T, rec **Txn) {
			err := db.Run(func(txn *Txn) error {
				*rec = txn
				if err := txn.Write("t", "ghost", "v"); err != nil {
					return err
				}
				return errBoom
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("Run = %v, want %v", err, errBoom)
			}
		}},
		{"committed write", func(t *testing.T, rec **Txn) {
			err := db.Run(func(txn *Txn) error {
				*rec = txn
				return txn.Write("t", "kept", "v")
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"write-set past heldScan", func(t *testing.T, rec **Txn) {
			err := db.Run(func(txn *Txn) error {
				*rec = txn
				for i := range heldScan + 8 {
					if err := txn.Write("t", fmt.Sprintf("w%d", i), "v"); err != nil {
						return err
					}
				}
				if txn.windex == nil {
					t.Error("no write-set index past heldScan writes")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"lock set past heldScan", func(t *testing.T, rec **Txn) {
			err := db.Run(func(txn *Txn) error {
				*rec = txn
				for i := range heldScan + 8 {
					if _, _, err := txn.Read("t", fmt.Sprintf("r%d", i)); err != nil {
						return err
					}
				}
				if txn.index == nil {
					t.Error("no held index past heldScan locks")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"wait-die kill order", func(t *testing.T, rec **Txn) {
			older := db.Begin()
			defer older.Abort()
			if err := older.Write("t", "contended", "o"); err != nil {
				t.Fatal(err)
			}
			err := db.Run(func(txn *Txn) error {
				*rec = txn
				_, _, err := txn.Read("t", "contended")
				return err
			})
			if !errors.Is(err, ErrAborted) || (*rec).abortErr == nil {
				t.Fatalf("Run = %v, want a wait-die abort left on the record", err)
			}
		}},
		{"cancelled ctx", func(t *testing.T, rec **Txn) {
			ctx, cancel := context.WithCancel(context.Background())
			err := db.RunCtx(ctx, func(txn *Txn) error {
				*rec = txn
				if txn.ctx != ctx {
					t.Error("RunCtx's record does not carry its ctx")
				}
				_, _, err := txn.Read("t", "x")
				return err
			})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for try := 0; ; try++ {
				if try == 100 {
					t.Fatal("no Run reused the dirty record in 100 tries")
				}
				var dirty, clean *Txn
				c.dirty(t, &dirty)
				waits := db.Metrics().LockWaits
				holderDone := make(chan error, 1)
				err := db.Run(func(txn *Txn) error {
					clean = txn
					if txn.abortErr != nil || len(txn.writes) != 0 || len(txn.held) != 0 ||
						txn.windex != nil || txn.index != nil {
						return fmt.Errorf("record starts with abortErr %v, %d writes, %d held, indexes %v %v",
							txn.abortErr, len(txn.writes), len(txn.held), txn.windex != nil, txn.index != nil)
					}
					if cap(txn.writes) > heldScan || cap(txn.held) > heldScan {
						return fmt.Errorf("record keeps arrays of capacity %d (writes) and %d (held), past heldScan",
							cap(txn.writes), cap(txn.held))
					}
					// Nor may the arrays pin what an earlier Run wrote or locked.
					for _, w := range txn.writes[:cap(txn.writes)] {
						if w != (kv.Write{}) {
							return fmt.Errorf("write-set array still holds %+v", w)
						}
					}
					for _, e := range txn.held[:cap(txn.held)] {
						if e != (heldLock{}) {
							return fmt.Errorf("held array still holds %+v", e)
						}
					}
					// A record goes back once, after its last attempt: a
					// Run inside this one gets a record of its own.
					var inner *Txn
					if err := db.Run(func(in *Txn) error { inner = in; return nil }); err != nil {
						return err
					}
					if inner == txn {
						return errors.New("a nested Run was handed its caller's record")
					}
					if _, ok, err := txn.Read("t", "ghost"); err != nil || ok {
						return fmt.Errorf("read of an earlier Run's buffered write: found %v, err %v", ok, err)
					}
					// A younger holder: the wait-die test lets this older
					// transaction wait, and only the holder's commit may
					// end that wait.
					holder := db.Begin()
					if err := holder.Write("t", "held", "h"); err != nil {
						return err
					}
					go func() {
						for db.Metrics().LockWaits == waits {
							time.Sleep(100 * time.Microsecond)
						}
						holderDone <- holder.Commit()
					}()
					_, _, err := txn.Read("t", "held")
					return err
				})
				if err != nil {
					t.Fatalf("Run after the dirty record: %v", err)
				}
				if err := recvErr(t, holderDone, "holder commit"); err != nil {
					t.Fatal(err)
				}
				if n := db.LockEntries(); n != 0 {
					t.Fatalf("lock table not empty: %d", n)
				}
				if clean == dirty {
					return
				}
			}
		})
	}
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
