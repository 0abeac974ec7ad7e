package oltp

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/golc"
)

// TestTATPLoad: initial population — every subscriber present, cf slot
// 0 for even ids, spread across every partition.
func TestTATPLoad(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	w := NewTATP(db, TATPConfig{Subscribers: 256})
	if w.Config().Subscribers != 256 {
		t.Fatalf("config = %+v", w.Config())
	}
	if got := len(db.Store().Scan("sub/", 0)); got != 256 {
		t.Fatalf("subscribers loaded = %d", got)
	}
	if got := len(db.Store().Scan("cf/", 0)); got != 128 {
		t.Fatalf("cf rows loaded = %d", got)
	}
	if v, ok := db.Store().Get("sub/00000042"); !ok || v == "" {
		t.Fatalf("subscriber 42 = %q,%v", v, ok)
	}
}

// TestTATPMixShape: the kind picker must be read-heavy (the TATP
// shape) and cover every kind.
func TestTATPMixShape(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	w := NewTATP(db, TATPConfig{Subscribers: 16})
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, numTxnKinds)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.PickKind(rng)]++
	}
	reads := float64(counts[GetSubscriberData]) / n
	if reads < 0.75 || reads > 0.85 {
		t.Fatalf("read fraction = %.3f, want ~0.80 (counts %v)", reads, counts)
	}
	for k, c := range counts {
		if c == 0 {
			t.Fatalf("kind %v never picked", TxnKind(k))
		}
	}
}

// TestTATPConcurrent runs the full mix from many goroutines in every
// latch mode (-race): no terminal errors, commits recorded, hot-set
// contention produces retries that all resolve, lock table drains.
func TestTATPConcurrent(t *testing.T) {
	// Oversubscribe so the hot set actually collides (see
	// TestConcurrentTransfers).
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, policyNamed(t, name), Options{MaxRetries: -1})
			w := NewTATP(db, TATPConfig{Subscribers: 512, HotAccessFrac: 0.8, HotSetFrac: 1.0 / 128})
			const workers = 8
			const txns = 200
			var committed atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for j := 0; j < txns; j++ {
						kind := w.PickKind(rng)
						if err := w.Run(kind, rng); err != nil {
							t.Errorf("%v failed terminally: %v", kind, err)
							return
						}
						committed.Add(1)
					}
				}(int64(i))
			}
			wg.Wait()
			if committed.Load() != workers*txns {
				t.Fatalf("committed %d of %d", committed.Load(), workers*txns)
			}
			m := db.Metrics()
			if m.Commits < workers*txns {
				t.Fatalf("commit counter %d < %d", m.Commits, workers*txns)
			}
			if n := db.lm.entries(); n != 0 {
				t.Fatalf("lock table not empty: %d", n)
			}
			// Store/index agreement after the churn (same check the kv
			// tests make), over the cf table that insert/delete hit.
			for _, p := range db.Store().Scan("cf/", 0) {
				found := false
				for _, k := range db.Store().Lookup(p.Value) {
					if k == p.Key {
						found = true
					}
				}
				if !found {
					t.Fatalf("cf row %q missing from index", p.Key)
				}
			}
			t.Logf("policy=%s metrics=%+v", name, m)
		})
	}
}
