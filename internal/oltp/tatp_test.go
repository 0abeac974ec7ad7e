package oltp

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
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

// TestTATPFormatsMatchFmt: the strconv row formats are their fmt
// forms byte for byte — ids from 0 to past eight digits, versions past
// 1e9 (where the forwarding value wraps).
func TestTATPFormatsMatchFmt(t *testing.T) {
	ids := []int{0, 1, 9, 10, 42, 255, 256, 4095, 1234567, 12345678, 99999999, 100000000, 123456789012}
	versions := []int{0, 1, 999_999_999, 1_000_000_000, 1_000_000_001, 1_234_567_891, math.MaxInt}
	for _, id := range ids {
		if got, want := subKey(id), fmt.Sprintf("%08d", id); got != want {
			t.Errorf("subKey(%d) = %q, want %q", id, got, want)
		}
		for _, slot := range []int{0, 3, 10, 1234} {
			if got, want := cfKey(id, slot), fmt.Sprintf("%08d:%d", id, slot); got != want {
				t.Errorf("cfKey(%d, %d) = %q, want %q", id, slot, got, want)
			}
		}
		for _, v := range versions {
			if got, want := profile(id, v), fmt.Sprintf("sub=%d bit=%d hex=%x ver=%d", id, id&1, id&0xff, v); got != want {
				t.Errorf("profile(%d, %d) = %q, want %q", id, v, got, want)
			}
		}
	}
	for _, v := range versions {
		if got, want := forwarding(v), fmt.Sprintf("fwd=+%09d", v%1_000_000_000); got != want {
			t.Errorf("forwarding(%d) = %q, want %q", v, got, want)
		}
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
			// Rows intact after the churn (lcperf's end-of-run check):
			// every subscriber row is its own profile, and every call
			// forwarding row a forwarding number.
			for id := 0; id < w.Config().Subscribers; id++ {
				key := storageKey(subTable, subKey(id))
				if v, ok := db.Store().Get(key); !ok || !strings.HasPrefix(v, fmt.Sprintf("sub=%d ", id)) {
					t.Fatalf("%s = %q,%v", key, v, ok)
				}
			}
			for _, p := range db.Store().Scan(cfTable+"/", 0) {
				if !strings.HasPrefix(p.Value, "fwd=+") {
					t.Fatalf("%s = %q", p.Key, p.Value)
				}
			}
			t.Logf("policy=%s metrics=%+v", name, m)
		})
	}
}
