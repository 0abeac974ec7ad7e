package oltp

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"repro/internal/golc"
)

// TestReadWriteCommit: basics — buffered writes are invisible until
// commit, visible to the writer, and applied (with the secondary
// index) at commit.
func TestReadWriteCommit(t *testing.T) {
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, policyNamed(t, name), Options{})
			if err := db.Run(func(txn *Txn) error {
				if _, ok, err := txn.Read("acct", "alice"); err != nil || ok {
					return fmt.Errorf("read empty = %v, %v", ok, err)
				}
				if err := txn.Write("acct", "alice", "100"); err != nil {
					return err
				}
				// Read-your-writes.
				if v, ok, err := txn.Read("acct", "alice"); err != nil || !ok || v != "100" {
					return fmt.Errorf("read own write = %q,%v,%v", v, ok, err)
				}
				// Not visible in the store until commit.
				if _, ok := db.Store().Get("acct/alice"); ok {
					return errors.New("uncommitted write visible in store")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if v, ok := db.Store().Get("acct/alice"); !ok || v != "100" {
				t.Fatalf("store after commit = %q,%v", v, ok)
			}
			m := db.Metrics()
			if m.Commits != 1 || m.Aborts != 0 {
				t.Fatalf("metrics = %+v", m)
			}
		})
	}
}

// TestAbortDiscards: an aborted transaction's writes and deletes never
// reach the store, and a finished txn rejects further operations.
func TestAbortDiscards(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	db.Store().Put("acct/bob", "50")
	txn := db.Begin()
	if err := txn.Write("acct", "bob", "999"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete("acct", "bob"); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	txn.Abort() // idempotent
	if v, ok := db.Store().Get("acct/bob"); !ok || v != "50" {
		t.Fatalf("store after abort = %q,%v", v, ok)
	}
	if _, _, err := txn.Read("acct", "bob"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read on finished txn = %v, want ErrTxnDone", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit on aborted txn = %v, want ErrTxnDone", err)
	}
}

// TestTwoTxnCycleOneAbort constructs the canonical deadlock — T1
// holds A wants B, T2 holds B wants A — and verifies wait-die resolves
// it with EXACTLY one abort (the younger, T2), after which both
// transactions' work completes: T1 commits, T2's retry commits.
func TestTwoTxnCycleOneAbort(t *testing.T) {
	for _, name := range []string{"load-control", "std"} {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, policyNamed(t, name), Options{})
			t1 := db.Begin() // older
			t2 := db.Begin() // younger
			if err := t1.Write("tbl", "A", "t1"); err != nil {
				t.Fatal(err)
			}
			if err := t2.Write("tbl", "B", "t2"); err != nil {
				t.Fatal(err)
			}
			// T1 → B: older waits on younger holder.
			t1done := make(chan error, 1)
			go func() { t1done <- t1.Write("tbl", "B", "t1") }()
			waitForCond(t, "t1 blocked on B", func() bool { return db.Metrics().LockWaits == 1 })
			// T2 → A: younger conflicts with older holder — dies NOW.
			err := t2.Write("tbl", "A", "t2")
			var ae *AbortError
			if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
				t.Fatalf("t2 write = %v, want wait-die abort", err)
			}
			t2.Abort() // releases B; t1's wait resolves
			if err := <-t1done; err != nil {
				t.Fatalf("t1 write after cycle broke: %v", err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			// Exactly one transaction aborted, exactly once.
			m := db.Metrics()
			if m.Aborts != 1 || m.WaitDieAborts != 1 || m.TimeoutAborts != 0 {
				t.Fatalf("metrics after cycle = %+v", m)
			}
			// The victim's retry (same keys, fresh txn) sails through.
			if err := db.Run(func(txn *Txn) error {
				return txn.Write("tbl", "A", "t2-retry")
			}); err != nil {
				t.Fatal(err)
			}
			if n := db.lm.entries(); n != 0 {
				t.Fatalf("lock table not empty after cycle: %d", n)
			}
		})
	}
}

// TestAbortReleasesAllLocks: an aborted transaction must leave
// NOTHING locked — every record, partition, and table lock it
// accumulated is released, the lock table drains to empty, and a
// younger transaction can immediately take X on everything it held.
func TestAbortReleasesAllLocks(t *testing.T) {
	db := newTestDB(t, golc.LoadControlled, Options{})
	victim := db.Begin()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		if err := victim.Write("tbl", k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := victim.ReadPartition("tbl", 0); err != nil { // adds a partition-level lock
		t.Fatal(err)
	}
	if held := len(victim.held); held < len(keys)+2 {
		t.Fatalf("victim holds %d locks, expected at least %d (records+table+partitions)", held, len(keys)+2)
	}
	if db.lm.entries() == 0 {
		t.Fatal("lock table empty while victim holds locks")
	}
	victim.Abort()
	if n := db.lm.entries(); n != 0 {
		t.Fatalf("lock table has %d entries after abort, want 0", n)
	}
	// A YOUNGER transaction (wait-die would kill it instantly if any
	// conflicting hold lingered) takes X on every key without a single
	// wait or abort.
	after := db.Begin()
	for _, k := range keys {
		if err := after.Write("tbl", k, "w"); err != nil {
			t.Fatalf("post-abort write %q: %v", k, err)
		}
	}
	if err := after.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.WaitDieAborts != 0 || m.TimeoutAborts != 0 || m.LockWaits != 0 {
		t.Fatalf("post-abort acquisition was not clean: %+v", m)
	}
}

// TestHierarchyIntentionLocks: a partition-level S hold must block a
// record write inside that partition (IX vs S) while record writes in
// other partitions proceed — the intention hierarchy doing its job.
func TestHierarchyIntentionLocks(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	// Find two keys on different partitions.
	keyIn, keyOut := "", ""
	for i := 0; i < 100 && (keyIn == "" || keyOut == ""); i++ {
		k := fmt.Sprintf("k%02d", i)
		if db.Store().ShardOf(storageKey("tbl", k)) == 0 {
			if keyIn == "" {
				keyIn = k
			}
		} else if keyOut == "" {
			keyOut = k
		}
	}
	if keyIn == "" || keyOut == "" {
		t.Fatal("could not find keys on distinct partitions")
	}
	scanner := db.Begin() // older
	if _, err := scanner.ReadPartition("tbl", 0); err != nil {
		t.Fatal(err)
	}
	writer := db.Begin() // younger
	// Write inside the scanned partition: IX(partition 0) vs S — dies.
	err := writer.Write("tbl", keyIn, "v")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("write into S-locked partition = %v, want wait-die abort", err)
	}
	writer.Abort()
	// Write outside it: proceeds (IS table from scanner is compatible
	// with IX table; partition 0's S is not touched).
	writer2 := db.Begin()
	if err := writer2.Write("tbl", keyOut, "v"); err != nil {
		t.Fatalf("write outside S-locked partition: %v", err)
	}
	writer2.Abort()
	scanner.Abort()
}

// TestUpgradeToSIX: ReadPartition (S at the partition) followed by a
// record write in the same partition upgrades the partition hold to
// SIX — readable everywhere, writable below — and commits cleanly.
func TestUpgradeToSIX(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	db.Store().Put("tbl/seed", "s")
	part := db.Store().ShardOf("tbl/seed")
	txn := db.Begin()
	if _, err := txn.ReadPartition("tbl", part); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("tbl", "seed", "s2"); err != nil {
		t.Fatal(err)
	}
	if got := txn.heldMode(PartitionID("tbl", part)); got != SIX {
		t.Fatalf("partition mode after read-then-write = %v, want SIX", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Store().Get("tbl/seed"); v != "s2" {
		t.Fatalf("store = %q", v)
	}
}

// TestReadPartitionOverlay: partition reads must see the transaction's
// own buffered writes, deletes, and inserts, in key order.
func TestReadPartitionOverlay(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	// Three committed rows in one partition (probe until 3 land on 0).
	var inPart []string
	for i := 0; len(inPart) < 3; i++ {
		k := fmt.Sprintf("k%03d", i)
		if db.Store().ShardOf(storageKey("t", k)) == 0 {
			db.Store().Put(storageKey("t", k), "old")
			inPart = append(inPart, k)
		}
	}
	// And one insert target in the same partition.
	var fresh string
	for i := 1000; ; i++ {
		k := fmt.Sprintf("k%03d", i)
		if db.Store().ShardOf(storageKey("t", k)) == 0 {
			fresh = k
			break
		}
	}
	txn := db.Begin()
	if err := txn.Write("t", inPart[0], "new"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete("t", inPart[1]); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("t", fresh, "ins"); err != nil {
		t.Fatal(err)
	}
	rows, err := txn.ReadPartition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, r := range rows {
		got[r.Key] = r.Value
		if i > 0 && rows[i-1].Key >= r.Key {
			t.Fatalf("partition read out of order: %q >= %q", rows[i-1].Key, r.Key)
		}
	}
	if got[inPart[0]] != "new" {
		t.Errorf("overwrite not overlaid: %v", got)
	}
	if _, ok := got[inPart[1]]; ok {
		t.Errorf("deleted row still visible: %v", got)
	}
	if got[fresh] != "ins" {
		t.Errorf("insert not overlaid: %v", got)
	}
	if got[inPart[2]] != "old" {
		t.Errorf("untouched row wrong: %v", got)
	}
	txn.Abort()
}

// TestRunRetriesPreserveTID: Run's retries must reuse the original
// begin-timestamp — the wait-die liveness guarantee.
func TestRunRetriesPreserveTID(t *testing.T) {
	// Unlimited retries: the victim must still be alive whenever the
	// blocker decides to commit, however slow this machine is.
	db := newTestDB(t, golc.Block, Options{MaxRetries: -1})
	blocker := db.Begin() // tid 1, holds X on the key
	if err := blocker.Write("tbl", "k", "b"); err != nil {
		t.Fatal(err)
	}
	var tids []uint64
	done := make(chan error, 1)
	go func() {
		done <- db.Run(func(txn *Txn) error { // tid 2: younger, dies, retries
			tids = append(tids, txn.TID())
			return txn.Write("tbl", "k", "r")
		})
	}()
	waitForCond(t, "victim retried at least twice", func() bool { return db.Metrics().Retries >= 2 })
	blocker.Commit()
	if err := <-done; err != nil {
		t.Fatalf("retried txn never committed: %v", err)
	}
	if len(tids) < 2 {
		t.Fatalf("expected retries, saw attempts: %d", len(tids))
	}
	for _, tid := range tids {
		if tid != tids[0] {
			t.Fatalf("retry changed tid: %v", tids)
		}
	}
}

// TestConcurrentTransfers is the -race workhorse: concurrent
// read-modify-write transfer transactions over a small hot keyspace
// must conserve the total and leave the lock table empty.
func TestConcurrentTransfers(t *testing.T) {
	// Oversubscribe so transactions actually interleave mid-flight
	// (on a small machine GOMAXPROCS=NumCPU lets most transactions
	// run to completion unchallenged and nothing contends).
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, policyNamed(t, name), Options{MaxRetries: -1})
			const accounts = 8
			const perAccount = 100
			for i := 0; i < accounts; i++ {
				db.Store().Put(storageKey("acct", fmt.Sprintf("a%d", i)), fmt.Sprintf("%d", perAccount))
			}
			const workers = 8
			const transfers = 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < transfers; i++ {
						from := fmt.Sprintf("a%d", (seed+i)%accounts)
						to := fmt.Sprintf("a%d", (seed+i+1+i%3)%accounts)
						if from == to {
							continue
						}
						err := db.Run(func(txn *Txn) error {
							fv, ok, err := txn.Read("acct", from)
							if err != nil {
								return err // keep AbortError intact for Run's retry
							}
							if !ok {
								return fmt.Errorf("account %s missing", from)
							}
							tv, ok, err := txn.Read("acct", to)
							if err != nil {
								return err
							}
							if !ok {
								return fmt.Errorf("account %s missing", to)
							}
							var f, g int
							fmt.Sscanf(fv, "%d", &f)
							fmt.Sscanf(tv, "%d", &g)
							if f == 0 {
								return nil
							}
							if err := txn.Write("acct", from, fmt.Sprintf("%d", f-1)); err != nil {
								return err
							}
							return txn.Write("acct", to, fmt.Sprintf("%d", g+1))
						})
						if err != nil {
							t.Errorf("transfer failed terminally: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			total := 0
			for i := 0; i < accounts; i++ {
				v, ok := db.Store().Get(storageKey("acct", fmt.Sprintf("a%d", i)))
				if !ok {
					t.Fatalf("account a%d vanished", i)
				}
				var n int
				fmt.Sscanf(v, "%d", &n)
				if n < 0 {
					t.Fatalf("account a%d went negative: %d", i, n)
				}
				total += n
			}
			if total != accounts*perAccount {
				t.Fatalf("money not conserved: %d != %d", total, accounts*perAccount)
			}
			if n := db.lm.entries(); n != 0 {
				t.Fatalf("lock table not empty after quiesce: %d", n)
			}
			m := db.Metrics()
			if m.Commits == 0 {
				t.Fatal("no commits recorded")
			}
			t.Logf("policy=%s metrics=%+v", name, m)
		})
	}
}
