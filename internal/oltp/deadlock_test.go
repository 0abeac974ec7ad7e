package oltp

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
)

// TestNewPolicy pins the name→policy mapping used by lcserve's
// -policy flag: each of the two names resolves to the policy that
// reports it back, and anything else — a former alias included — is an
// error that names the two.
func TestNewPolicy(t *testing.T) {
	for _, name := range []string{"waitdie", "detect"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.PolicyName() != name {
			t.Fatalf("NewPolicy(%q).PolicyName() = %q", name, p.PolicyName())
		}
	}
	for _, name := range []string{"wait-die", "nonsense"} {
		_, err := NewPolicy(name)
		if err == nil || !strings.Contains(err.Error(), "waitdie") || !strings.Contains(err.Error(), "detect") {
			t.Fatalf("NewPolicy(%q) = %v, want an error naming waitdie and detect", name, err)
		}
	}
}

// TestDetectorTwoTxnCycle builds the canonical deadlock under the
// detector — T1 holds A wants B, T2 holds B wants A — where, unlike
// wait-die, BOTH requests are allowed to wait: T1 (older) parks on B,
// then T2's request for A closes the cycle, the on-block check finds
// it, and the youngest member (T2, the requester itself) is aborted
// with AbortDeadlock. Exactly one abort, no timeout backstop, lock
// table drains.
func TestDetectorTwoTxnCycle(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{DeadlockPolicy: NewDetectPolicy()})
	if got := db.PolicyName(); got != "detect" {
		t.Fatalf("PolicyName = %q", got)
	}
	t1 := db.Begin() // older
	t2 := db.Begin() // younger
	if err := t1.Write("tbl", "A", "t1"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("tbl", "B", "t2"); err != nil {
		t.Fatal(err)
	}
	// T1 → B: under detection the older request simply waits.
	t1done := make(chan error, 1)
	go func() { t1done <- t1.Write("tbl", "B", "t1") }()
	waitForCond(t, "t1 blocked on B", func() bool { return db.Metrics().LockWaits == 1 })
	// T2 → A closes the cycle; the detector must pick T2 (youngest).
	err := t2.Write("tbl", "A", "t2")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortDeadlock {
		t.Fatalf("t2 write = %v, want deadlock abort", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatal("deadlock AbortError must match ErrAborted")
	}
	t2.Abort() // releases B; T1's wait resolves
	if err := <-t1done; err != nil {
		t.Fatalf("t1 write after cycle broke: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.DetectedAborts != 1 || m.WaitDieAborts != 0 || m.TimeoutAborts != 0 || m.Aborts != 1 {
		t.Fatalf("metrics after cycle = %+v", m)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty after cycle: %d", n)
	}
}

// TestDetectorRemoteVictim makes the YOUNGER transaction park first,
// so the cycle is closed by the OLDER transaction's request and the
// victim (still the youngest) is a remote parked waiter on another
// resource: cancelWaiter must wake it with AbortDeadlock while the
// older requester keeps waiting and is then granted.
func TestDetectorRemoteVictim(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{DeadlockPolicy: NewDetectPolicy()})
	t1 := db.Begin() // older
	t2 := db.Begin() // younger
	if err := t1.Write("tbl", "A", "t1"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("tbl", "B", "t2"); err != nil {
		t.Fatal(err)
	}
	// T2 → A parks first (younger waiting on older: wait-die would have
	// killed it here; the detector lets it wait).
	t2done := make(chan error, 1)
	go func() { t2done <- t2.Write("tbl", "A", "t2") }()
	waitForCond(t, "t2 blocked on A", func() bool { return db.Metrics().LockWaits == 1 })
	// T1 → B closes the cycle. T1 must NOT be the victim (it is older);
	// the parked T2 must be cancelled remotely and T1 granted once T2
	// rolls back.
	t1done := make(chan error, 1)
	go func() { t1done <- t1.Write("tbl", "B", "t1") }()
	err := <-t2done
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortDeadlock {
		t.Fatalf("t2 parked write woke with %v, want deadlock abort", err)
	}
	t2.Abort() // releases B; T1 granted
	if err := <-t1done; err != nil {
		t.Fatalf("t1 (older, cycle survivor) = %v, want grant", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.DetectedAborts != 1 || m.TimeoutAborts != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestDetectorThreeTxnCycle drives a three-party cycle (T1→T2→T3→T1
// through three records) so the DFS has to walk more than one edge:
// exactly one victim (the youngest, T3), both survivors commit.
func TestDetectorThreeTxnCycle(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{DeadlockPolicy: NewDetectPolicy()})
	t1, t2, t3 := db.Begin(), db.Begin(), db.Begin()
	for txn, key := range map[*Txn]string{t1: "A", t2: "B", t3: "C"} {
		if err := txn.Write("tbl", key, "v"); err != nil {
			t.Fatal(err)
		}
	}
	// T1 → B (parks behind T2), T2 → C (parks behind T3).
	t1done := make(chan error, 1)
	go func() { t1done <- t1.Write("tbl", "B", "v") }()
	waitForCond(t, "t1 parked", func() bool { return db.Metrics().LockWaits == 1 })
	t2done := make(chan error, 1)
	go func() { t2done <- t2.Write("tbl", "C", "v") }()
	waitForCond(t, "t2 parked", func() bool { return db.Metrics().LockWaits == 2 })
	// T3 → A closes the loop; T3 is youngest and must die on the spot.
	err := t3.Write("tbl", "A", "v")
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason != AbortDeadlock {
		t.Fatalf("t3 = %v, want deadlock abort", err)
	}
	t3.Abort() // releases C → T2 granted → after T2 commits, T1 granted
	if err := <-t2done; err != nil {
		t.Fatalf("t2 after victim rollback: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-t1done; err != nil {
		t.Fatalf("t1 after t2 commit: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.DetectedAborts != 1 || m.TimeoutAborts != 0 || m.Aborts != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
}

// TestDualUpgradeConflict is the conversion deadlock: two transactions
// hold S on one record and both request X. Under wait-die the younger
// upgrader must die immediately — no timeout backstop may fire — and
// the older one gets the lock once the victim rolls back. Under the
// detector the same shape must resolve with exactly one detected
// abort (again the younger). Run with -race in CI.
func TestDualUpgradeConflict(t *testing.T) {
	cases := []struct {
		name   string
		policy func() DeadlockPolicy
		reason AbortReason
	}{
		{"waitdie", NewWaitDiePolicy, AbortWaitDie},
		{"detect", NewDetectPolicy, AbortDeadlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t, golc.Block, Options{DeadlockPolicy: tc.policy()})
			older := db.Begin()
			younger := db.Begin()
			// Both read the record: two S holders.
			if _, _, err := older.Read("tbl", "k"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := younger.Read("tbl", "k"); err != nil {
				t.Fatal(err)
			}
			// Older requests the upgrade first and parks behind the
			// younger S holder (legal under both policies: wait-die
			// lets the older wait, the detector lets anyone wait).
			olderDone := make(chan error, 1)
			go func() { olderDone <- older.Write("tbl", "k", "old") }()
			waitForCond(t, "older upgrade parked", func() bool { return db.Metrics().LockWaits == 1 })
			// Younger requests its own upgrade: S(older)+queued X(older)
			// both conflict. Wait-die: younger dies instantly. Detector:
			// the block closes the two-party conversion cycle and the
			// younger is the victim. Either way the abort must be
			// immediate — fail fast if only the 2s timeout resolves it.
			start := time.Now()
			err := younger.Write("tbl", "k", "young")
			elapsed := time.Since(start)
			var ae *AbortError
			if !errors.As(err, &ae) || ae.Reason != tc.reason {
				t.Fatalf("younger upgrade = %v, want %v abort", err, tc.reason)
			}
			if elapsed > time.Second {
				t.Fatalf("abort took %v — the timeout backstop resolved it, not the policy", elapsed)
			}
			younger.Abort() // drops its S; older's X grant follows
			if err := <-olderDone; err != nil {
				t.Fatalf("older upgrade after victim rollback: %v", err)
			}
			if err := older.Commit(); err != nil {
				t.Fatal(err)
			}
			m := db.Metrics()
			if m.Aborts != 1 || m.TimeoutAborts != 0 {
				t.Fatalf("metrics = %+v (exactly one policy abort, no timeout)", m)
			}
			switch tc.reason {
			case AbortWaitDie:
				if m.WaitDieAborts != 1 || m.DetectedAborts != 0 {
					t.Fatalf("metrics = %+v", m)
				}
			case AbortDeadlock:
				if m.DetectedAborts != 1 || m.WaitDieAborts != 0 {
					t.Fatalf("metrics = %+v", m)
				}
			}
			if v, ok := db.Store().Get("tbl/k"); !ok || v != "old" {
				t.Fatalf("store = %q,%v, want older's write", v, ok)
			}
			if n := db.LockEntries(); n != 0 {
				t.Fatalf("lock table not empty: %d", n)
			}
		})
	}
}

// TestDetectorConcurrentStress hammers a small hot keyspace from many
// goroutines under the detector (-race): every transaction must
// eventually commit via Run's retries, no timeout aborts (the detector
// must catch every cycle itself), and the lock table must drain.
func TestDetectorConcurrentStress(t *testing.T) {
	// Oversubscribe so transactions actually interleave mid-flight (see
	// TestConcurrentTransfers).
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	db := newTestDB(t, golc.Block, Options{DeadlockPolicy: NewDetectPolicy(), MaxRetries: -1})
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
		t.Fatalf("timeout backstop fired %d times under the detector: %+v", m.TimeoutAborts, m)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty after quiesce: %d", n)
	}
	t.Logf("metrics=%+v", m)
}
