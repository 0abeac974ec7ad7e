package oltp

import (
	"errors"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/golc"
)

// TestConflictSetup: the probe must land the requested population on
// the requested partitions, and pickTouches must honor the shape
// (count, distinctness, partition spread).
func TestConflictSetup(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	w := NewConflict(db, ConflictConfig{Partitions: 3, PerPartition: 64, RecordsPerTxn: 12, SpreadPartitions: 1})
	cfg := w.Config()
	if cfg.Partitions != 3 || cfg.PerPartition != 64 {
		t.Fatalf("config = %+v", cfg)
	}
	for p := 0; p < cfg.Partitions; p++ {
		if len(w.keys[p]) != cfg.PerPartition {
			t.Fatalf("partition %d has %d keys, want %d", p, len(w.keys[p]), cfg.PerPartition)
		}
		for _, k := range w.keys[p] {
			if got := db.Store().ShardOf(storageKey(conflictTable, k)); got != p {
				t.Fatalf("key %q routed to %d, probed as %d", k, got, p)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		touches := w.pickTouches(rng)
		if len(touches) != cfg.RecordsPerTxn {
			t.Fatalf("touches = %d, want %d", len(touches), cfg.RecordsPerTxn)
		}
		seen := map[string]bool{}
		part := touches[0].part
		for _, tc := range touches {
			if seen[tc.key] {
				t.Fatalf("duplicate key %q in one transaction", tc.key)
			}
			seen[tc.key] = true
			if tc.part != part {
				t.Fatalf("SpreadPartitions=1 but touches span partitions %d and %d", part, tc.part)
			}
		}
	}
}

// TestConflictPickTouchesExtremeOverlap: when the hot population
// (SpreadPartitions x HotPerPartition) is smaller than one
// transaction's draw and OverlapFrac is 1.0, pickTouches must fall
// back to the uniform population instead of rejection-sampling
// forever. (Regression: OverlapFrac 1 with SpreadPartitions 1 hung
// with no output.)
func TestConflictPickTouchesExtremeOverlap(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	w := NewConflict(db, ConflictConfig{
		Partitions:       4,
		RecordsPerTxn:    16,
		SpreadPartitions: 1,
		HotPerPartition:  8, // hot population 8 < 16 records wanted
		OverlapFrac:      1.0,
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		touches := w.pickTouches(rng)
		if len(touches) != 16 {
			t.Fatalf("touches = %d, want 16", len(touches))
		}
		seen := map[string]bool{}
		for _, tc := range touches {
			if seen[tc.key] {
				t.Fatalf("duplicate key %q", tc.key)
			}
			seen[tc.key] = true
		}
	}
}

// TestConflictCorruptCounter: a stored counter that is not a number
// fails the writing transaction instead of restarting it from 0, and
// adds nothing to TotalWrites, so the conservation check sees it.
func TestConflictCorruptCounter(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	w := NewConflict(db, ConflictConfig{Partitions: 1, PerPartition: 8, RecordsPerTxn: 2, WriteFrac: 1})
	for _, k := range w.keys[0] {
		db.Store().Put(storageKey(conflictTable, k), "7")
	}
	if got := w.TotalWrites(); got != 7*8 {
		t.Fatalf("TotalWrites = %d, want %d", got, 7*8)
	}
	bad := storageKey(conflictTable, w.keys[0][3])
	db.Store().Put(bad, "x7")
	if got := w.TotalWrites(); got != 7*7 {
		t.Fatalf("TotalWrites with one corrupt counter = %d, want %d", got, 7*7)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; ; i++ {
		err := w.Run(rng)
		if err != nil {
			if !errors.Is(err, strconv.ErrSyntax) {
				t.Fatalf("corrupt counter failed the transaction with %v", err)
			}
			break
		}
		if i == 1000 {
			t.Fatal("1,000 transactions never touched the corrupt counter")
		}
	}
	if v, _ := db.Store().Get(bad); v != "x7" {
		t.Fatalf("corrupt counter rewritten to %q", v)
	}
}

// TestConflictWorkloadBothPolicies runs the conflict mix concurrently
// under wait-die (-race): every transaction commits via retries, the
// increment conservation holds (commits × writes-per-commit == sum of
// counters), and the quiescent lock table is empty — the acceptance
// check that wait-die leaks no entries.
func TestConflictWorkloadBothPolicies(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	t.Run("waitdie", func(t *testing.T) {
		// Threshold low enough that the 12-record transactions
		// escalate: the fold-in path runs under real concurrency.
		db := newTestDB(t, golc.Block, Options{MaxRetries: -1, EscalationThreshold: 8})
		w := NewConflict(db, ConflictConfig{
			Partitions:      2,
			PerPartition:    32,
			RecordsPerTxn:   12,
			OverlapFrac:     0.7,
			HotPerPartition: 4,
			WriteFrac:       1.0, // every touch writes: conservation is checkable
		})
		const workers = 6
		const txns = 40
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*31 + 5))
				for j := 0; j < txns; j++ {
					if err := w.Run(rng); err != nil {
						t.Errorf("conflict txn failed terminally: %v", err)
						return
					}
				}
			}(int64(i))
		}
		wg.Wait()
		m := db.Metrics()
		if m.Commits != workers*txns {
			t.Fatalf("commits = %d, want %d", m.Commits, workers*txns)
		}
		// Every committed transaction incremented exactly
		// RecordsPerTxn counters; aborted attempts must have
		// contributed nothing.
		want := workers * txns * w.Config().RecordsPerTxn
		if got := w.TotalWrites(); got != want {
			t.Fatalf("counter sum = %d, want %d (lost or doubled writes)", got, want)
		}
		if n := db.LockEntries(); n != 0 {
			t.Fatalf("quiescent lock table has %d entries", n)
		}
		t.Logf("metrics=%+v", m)
	})
}
