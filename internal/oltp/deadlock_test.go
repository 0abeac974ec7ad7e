package oltp

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
)

// TestDualUpgradeConflict is the conversion deadlock: two transactions
// hold S on one record and both request X. The younger upgrader must
// die immediately under wait-die — no timeout backstop may fire — and
// the older one gets the lock once the victim rolls back. Run with
// -race in CI.
func TestDualUpgradeConflict(t *testing.T) {
	t.Run("waitdie", func(t *testing.T) {
		db := newTestDB(t, golc.Block, Options{})
		older := db.Begin()
		younger := db.Begin()
		// Both read the record: two S holders.
		if _, _, err := older.Read("tbl", "k"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := younger.Read("tbl", "k"); err != nil {
			t.Fatal(err)
		}
		// Older requests the upgrade first and parks behind the younger
		// S holder (wait-die lets the older wait).
		olderDone := make(chan error, 1)
		go func() { olderDone <- older.Write("tbl", "k", "old") }()
		waitForCond(t, "older upgrade parked", func() bool { return db.Metrics().LockWaits == 1 })
		// Younger requests its own upgrade: S(older)+queued X(older)
		// both conflict, so the younger dies — instantly: fail fast if
		// only the 2s timeout resolves it.
		start := time.Now()
		err := younger.Write("tbl", "k", "young")
		elapsed := time.Since(start)
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
			t.Fatalf("younger upgrade = %v, want wait-die abort", err)
		}
		if elapsed > time.Second {
			t.Fatalf("abort took %v — the timeout backstop resolved it, not wait-die", elapsed)
		}
		younger.Abort() // drops its S; older's X grant follows
		if err := recvErr(t, olderDone, "older upgrade"); err != nil {
			t.Fatalf("older upgrade after victim rollback: %v", err)
		}
		if err := older.Commit(); err != nil {
			t.Fatal(err)
		}
		m := db.Metrics()
		if m.Aborts != 1 || m.WaitDieAborts != 1 || m.TimeoutAborts != 0 {
			t.Fatalf("metrics = %+v (exactly one wait-die abort, no timeout)", m)
		}
		if v, ok := db.Store().Get("tbl/k"); !ok || v != "old" {
			t.Fatalf("store = %q,%v, want older's write", v, ok)
		}
		if n := db.LockEntries(); n != 0 {
			t.Fatalf("lock table not empty: %d", n)
		}
	})
}

// TestWaitDieConcurrentStress hammers a small hot keyspace from many
// goroutines (-race): every transaction must eventually commit via
// Run's retries, no timeout aborts (wait-die must break every would-be
// cycle itself), and the lock table must drain.
func TestWaitDieConcurrentStress(t *testing.T) {
	// Oversubscribe so transactions actually interleave mid-flight (see
	// TestConcurrentTransfers).
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	db := newTestDB(t, golc.Block, Options{MaxRetries: -1})
	const keys = 6
	for i := 0; i < keys; i++ {
		db.Store().Put(storageKey("tbl", fmt.Sprintf("k%d", i)), "0")
	}
	const workers = 8
	const txns = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				// Touch two records in worker-dependent (often opposed)
				// order: a deadlock factory.
				a := fmt.Sprintf("k%d", (seed+i)%keys)
				b := fmt.Sprintf("k%d", (seed*3+i*5+1)%keys)
				if a == b {
					continue
				}
				err := db.Run(func(txn *Txn) error {
					if _, _, err := txn.Read("tbl", a); err != nil {
						return err
					}
					if err := txn.Write("tbl", a, "w"); err != nil {
						return err
					}
					if _, _, err := txn.Read("tbl", b); err != nil {
						return err
					}
					return txn.Write("tbl", b, "w")
				})
				if err != nil {
					t.Errorf("worker %d txn %d failed terminally: %v", seed, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := db.Metrics()
	if m.TimeoutAborts != 0 {
		t.Fatalf("timeout backstop fired %d times under wait-die: %+v", m.TimeoutAborts, m)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty after quiesce: %d", n)
	}
	t.Logf("metrics=%+v", m)
}
