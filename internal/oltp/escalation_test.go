package oltp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/golc"
)

// keysInPartition probes the store's shard map for n distinct keys of
// table that route to partition part.
func keysInPartition(t *testing.T, db *DB, table string, part, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d keys in partition %d", n, part)
		}
		k := fmt.Sprintf("e%05d", i)
		if db.Store().ShardOf(storageKey(table, k)) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestEscalationFoldsRecords: crossing the threshold must replace the
// accumulated record locks with ONE partition X lock — the lock table
// shrinks mid-transaction, later accesses under that partition take no
// record locks at all, and commit still applies every buffered write.
func TestEscalationFoldsRecords(t *testing.T) {
	const th = 4
	db := newTestDB(t, golc.Block, Options{EscalationThreshold: th})
	keys := keysInPartition(t, db, "tbl", 0, th+3)
	pid := PartitionID("tbl", 0)
	txn := db.Begin()
	for i, k := range keys[:th] {
		if err := txn.Write("tbl", k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Below the threshold: all record locks, no escalation yet.
	if m := db.Metrics(); m.Escalations != 0 {
		t.Fatalf("escalated below threshold: %+v", m)
	}
	if got := txn.heldMode(pid); got != IX {
		t.Fatalf("partition mode before escalation = %v, want IX", got)
	}
	// The (th+1)-th record access under the partition escalates.
	if err := txn.Write("tbl", keys[th], "trigger"); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.Escalations != 1 {
		t.Fatalf("Escalations = %d, want 1", m.Escalations)
	}
	if got := txn.heldMode(pid); got != X {
		t.Fatalf("partition mode after escalation = %v, want X", got)
	}
	for _, e := range txn.held {
		if e.id.Level == LevelRecord && e.id.Partition == 0 {
			t.Fatalf("record lock %v survived escalation", e.id)
		}
	}
	// The fold compacts held in place; what it vacated must be zeroed, or
	// the backing array pins the retired heads and the ids' strings.
	for i, e := range txn.held[len(txn.held):cap(txn.held)] {
		if e != (heldLock{}) {
			t.Fatalf("vacated held slot +%d not cleared after escalation: %+v", i, e)
		}
	}
	// table + partition only: the lock table shrank mid-transaction.
	if n := db.LockEntries(); n != 2 {
		t.Fatalf("lock-table entries after escalation = %d, want 2", n)
	}
	// Further accesses under the escalated partition add no locks.
	held := len(txn.held)
	for _, k := range keys[th+1:] {
		if err := txn.Write("tbl", k, "post"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := txn.Read("tbl", k); err != nil {
			t.Fatal(err)
		}
	}
	if len(txn.held) != held {
		t.Fatalf("held grew %d -> %d after escalation", held, len(txn.held))
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[:th] {
		if v, ok := db.Store().Get(storageKey("tbl", k)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %q = %q,%v after commit", k, v, ok)
		}
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty after commit: %d", n)
	}
}

// TestEscalationReadOnlyUsesS: a pure reader escalates to partition S,
// not X — other readers of the partition's records proceed, writers
// conflict (they need IX).
func TestEscalationReadOnlyUsesS(t *testing.T) {
	const th = 4
	db := newTestDB(t, golc.Block, Options{EscalationThreshold: th})
	keys := keysInPartition(t, db, "tbl", 0, th+1)
	for _, k := range keys {
		db.Store().Put(storageKey("tbl", k), "seed")
	}
	reader := db.Begin() // older
	for _, k := range keys {
		if _, ok, err := reader.Read("tbl", k); err != nil || !ok {
			t.Fatalf("read %q = %v,%v", k, ok, err)
		}
	}
	if got := reader.heldMode(PartitionID("tbl", 0)); got != S {
		t.Fatalf("partition mode after read-only escalation = %v, want S", got)
	}
	if m := db.Metrics(); m.Escalations != 1 {
		t.Fatalf("Escalations = %d, want 1", m.Escalations)
	}
	// Another reader coexists with the S partition hold...
	reader2 := db.Begin()
	if _, _, err := reader2.Read("tbl", keys[0]); err != nil {
		t.Fatalf("second reader vs escalated S: %v", err)
	}
	reader2.Abort()
	// ...but a (younger) writer's IX conflicts and wait-dies.
	writer := db.Begin()
	err := writer.Write("tbl", keys[0], "w")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("writer vs escalated S = %v, want wait-die abort", err)
	}
	writer.Abort()
	reader.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestEscalationDisabled: EscalationThreshold < 0 must never escalate,
// however many record locks pile up — the pre-escalation behavior,
// selectable for comparison.
func TestEscalationDisabled(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{EscalationThreshold: -1})
	keys := keysInPartition(t, db, "tbl", 0, DefaultEscalationThreshold+8)
	txn := db.Begin()
	for _, k := range keys {
		if err := txn.Write("tbl", k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if m := db.Metrics(); m.Escalations != 0 {
		t.Fatalf("escalated with escalation disabled: %+v", m)
	}
	recs := 0
	for _, e := range txn.held {
		if e.id.Level == LevelRecord {
			recs++
		}
	}
	if recs != len(keys) {
		t.Fatalf("record locks = %d, want %d", recs, len(keys))
	}
	txn.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestEscalationIsPolicyGoverned: the escalated partition acquire goes
// through the same deadlock policy as any other request — here a
// younger transaction escalating to X collides with an older
// transaction's IX partition hold and must wait-die, leaving the
// escalation uncounted and the transaction abortable as usual.
func TestEscalationIsPolicyGoverned(t *testing.T) {
	const th = 4
	db := newTestDB(t, golc.Block, Options{EscalationThreshold: th})
	keys := keysInPartition(t, db, "tbl", 0, th+2)
	older := db.Begin()
	if err := older.Write("tbl", keys[th+1], "old"); err != nil { // IX on the partition
		t.Fatal(err)
	}
	younger := db.Begin()
	for _, k := range keys[:th] { // distinct records: IX+IX compatible
		if err := younger.Write("tbl", k, "y"); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger access escalates to partition X, which conflicts with
	// the older holder's IX: the younger requester dies on the spot.
	err := younger.Write("tbl", keys[th], "trigger")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("escalating younger = %v, want wait-die abort", err)
	}
	if m := db.Metrics(); m.Escalations != 0 {
		t.Fatalf("failed escalation must not count: %+v", m)
	}
	younger.Abort()
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}
