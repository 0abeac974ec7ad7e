package kv

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// latchPolicies are the names the per-policy subtests run under;
// "load-control" and "std" are the subtests' names for lc and block.
var latchPolicies = []string{"load-control", "spin", "std"}

func policyNamed(t *testing.T, name string) golc.ContentionPolicy {
	t.Helper()
	switch name {
	case "load-control":
		return golc.LoadControlled
	case "spin":
		return golc.Spin
	case "std":
		return golc.Block
	}
	t.Fatalf("no latch policy for subtest name %q", name)
	return 0
}

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Runtime == nil {
		rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
		rt.Start()
		t.Cleanup(rt.Stop)
		opts.Runtime = rt
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// TestShardRouting is the routing table test: fixed expectations (the
// hash is part of the on-wire contract of nothing, but stable routing
// is what the shard-latch design hangs off), plus stability and range
// properties.
func TestShardRouting(t *testing.T) {
	cases := []struct {
		key     string
		shard16 int
		shard7  int
	}{
		{"alpha", 7, 3},
		{"beta", 3, 5},
		{"gamma", 2, 6},
		{"delta", 5, 3},
		{"user:0001", 7, 1},
		{"user:0002", 6, 6},
		{"user:0003", 5, 4},
		{"", 9, 1},
		{"k", 2, 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("key=%q", tc.key), func(t *testing.T) {
			if got := ShardIndex(tc.key, 16); got != tc.shard16 {
				t.Errorf("ShardIndex(%q, 16) = %d, want %d", tc.key, got, tc.shard16)
			}
			if got := ShardIndex(tc.key, 7); got != tc.shard7 {
				t.Errorf("ShardIndex(%q, 7) = %d, want %d", tc.key, got, tc.shard7)
			}
			// Stability: routing is a pure function.
			if a, b := ShardIndex(tc.key, 16), ShardIndex(tc.key, 16); a != b {
				t.Errorf("routing not stable: %d then %d", a, b)
			}
		})
	}
	// Range and spread: 10k sequential keys must land in [0,n) and
	// leave no shard empty (Fibonacci spread).
	for _, n := range []int{1, 2, 16, 64} {
		hit := make([]int, n)
		for i := 0; i < 10000; i++ {
			idx := ShardIndex(fmt.Sprintf("key-%05d", i), n)
			if idx < 0 || idx >= n {
				t.Fatalf("ShardIndex out of range: %d with n=%d", idx, n)
			}
			hit[idx]++
		}
		for s, c := range hit {
			if c == 0 {
				t.Errorf("n=%d: shard %d never hit by 10k sequential keys", n, s)
			}
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{Shards: 8, Policy: policyNamed(t, name)})
			if _, ok := s.Get("a"); ok {
				t.Fatal("get on empty store")
			}
			if old, existed := s.Put("a", "1"); existed {
				t.Fatalf("fresh put reported old value %q", old)
			}
			if v, ok := s.Get("a"); !ok || v != "1" {
				t.Fatalf("get = %q,%v", v, ok)
			}
			if old, existed := s.Put("a", "2"); !existed || old != "1" {
				t.Fatalf("overwrite = %q,%v", old, existed)
			}
			if s.Len() != 1 {
				t.Fatalf("len = %d", s.Len())
			}
			if old, existed := s.Delete("a"); !existed || old != "2" {
				t.Fatalf("delete = %q,%v", old, existed)
			}
			if _, ok := s.Get("a"); ok {
				t.Fatal("get after delete")
			}
			if _, existed := s.Delete("a"); existed {
				t.Fatal("double delete reported a value")
			}
		})
	}
}

func TestScan(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8})
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("user:%04d", i), fmt.Sprintf("v%d", i))
	}
	s.Put("other", "x")
	all := s.Scan("user:", 0)
	if len(all) != 50 {
		t.Fatalf("scan matched %d keys, want 50", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatalf("scan out of order at %d: %q >= %q", i, all[i-1].Key, all[i].Key)
		}
	}
	limited := s.Scan("user:", 7)
	if len(limited) != 7 || limited[0].Key != "user:0000" {
		t.Fatalf("limited scan = %d pairs, first %q", len(limited), limited[0].Key)
	}
	if got := s.Scan("", 0); len(got) != 51 {
		t.Fatalf("empty-prefix scan = %d, want 51", len(got))
	}
	if got := s.Scan("zzz", 0); len(got) != 0 {
		t.Fatalf("no-match scan = %v", got)
	}
}

// TestOrderingContract pins the documented deterministic ordering of
// Scan: ascending lexicographic key order, and limited scans return
// the first matches in that order. Keys are inserted in
// shuffled order so map iteration or insertion order can't fake it.
func TestOrderingContract(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8})
	perm := rand.New(rand.NewSource(7)).Perm(64)
	for _, i := range perm {
		s.Put(fmt.Sprintf("user:%04d", i), fmt.Sprintf("tier-%d", i%3))
	}
	for run := 0; run < 3; run++ { // deterministic across calls, too
		all := s.Scan("user:", 0)
		if len(all) != 64 {
			t.Fatalf("scan matched %d", len(all))
		}
		for i := 1; i < len(all); i++ {
			if all[i-1].Key >= all[i].Key {
				t.Fatalf("Scan out of order at %d: %q >= %q", i, all[i-1].Key, all[i].Key)
			}
		}
		limited := s.Scan("user:", 5)
		for i, p := range limited {
			if want := fmt.Sprintf("user:%04d", i); p.Key != want {
				t.Fatalf("limited scan[%d] = %q, want %q (first matches in order)", i, p.Key, want)
			}
		}
	}
}

// TestShardOf: the instance-level partition map must agree with the
// package routing function for this store's shard count.
func TestShardOf(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		if got, want := s.ShardOf(key), ShardIndex(key, 8); got != want {
			t.Fatalf("ShardOf(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestScanShard: per-shard scans must be sorted, complete, and agree
// with the routing map — together the shards partition the store.
func TestScanShard(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8})
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("k%03d", i), "v")
	}
	total := 0
	for idx := 0; idx < s.Shards(); idx++ {
		pairs := s.ScanShard(idx)
		total += len(pairs)
		for i, p := range pairs {
			if s.ShardOf(p.Key) != idx {
				t.Fatalf("shard %d returned foreign key %q (routes to %d)", idx, p.Key, s.ShardOf(p.Key))
			}
			if i > 0 && pairs[i-1].Key >= p.Key {
				t.Fatalf("shard %d out of order: %q >= %q", idx, pairs[i-1].Key, p.Key)
			}
		}
	}
	if total != 200 {
		t.Fatalf("shards sum to %d keys, want 200", total)
	}
}

// TestApplyBatch: puts and deletes across shards apply atomically per
// shard, and later writes to the same key win.
func TestApplyBatch(t *testing.T) {
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{Shards: 8, Policy: policyNamed(t, name)})
			s.Put("stale", "red")
			s.ApplyBatch(nil) // no-op
			s.ApplyBatch([]Write{
				{Key: "a", Value: "red"},
				{Key: "b", Value: "blue"},
				{Key: "c", Value: "red"},
				{Key: "stale", Delete: true},
				{Key: "a", Value: "blue"}, // same-key overwrite in one batch
			})
			for k, want := range map[string]string{"a": "blue", "b": "blue", "c": "red"} {
				if v, ok := s.Get(k); !ok || v != want {
					t.Fatalf("%s = %q,%v, want %q", k, v, ok, want)
				}
			}
			if _, ok := s.Get("stale"); ok {
				t.Fatal("batch delete did not remove key")
			}
			if s.Len() != 3 {
				t.Fatalf("len = %d", s.Len())
			}
		})
	}
}

// TestApplyBatchConcurrent: concurrent batch commits and single-key
// writers must not deadlock or lose a write (-race exercised). Each
// worker writes only its own keys, so its model of them is exact.
func TestApplyBatchConcurrent(t *testing.T) {
	s := newTestStore(t, Options{Shards: 8})
	models := make([]map[string]string, 8)
	var wg sync.WaitGroup
	for w := range models {
		models[w] = make(map[string]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng, model := rand.New(rand.NewSource(int64(w))), models[w]
			for i := 0; i < 500; i++ {
				if rng.Intn(2) == 0 {
					batch := make([]Write, 0, 4)
					for j := 0; j < 4; j++ {
						batch = append(batch, Write{
							Key:    workerKey(w, rng.Intn(workerKeys)),
							Value:  fmt.Sprintf("v%d", rng.Intn(8)),
							Delete: rng.Intn(5) == 0,
						})
					}
					s.ApplyBatch(batch)
					for _, wr := range batch { // slice order: later writes win
						if wr.Delete {
							delete(model, wr.Key)
						} else {
							model[wr.Key] = wr.Value
						}
					}
				} else {
					key, val := workerKey(w, rng.Intn(workerKeys)), fmt.Sprintf("v%d", rng.Intn(8))
					s.Put(key, val)
					model[key] = val
				}
			}
		}(w)
	}
	wg.Wait()
	checkModels(t, s, models)
}

// workerKeys is how many keys each worker of the concurrent tests owns.
const workerKeys = 100

// workerKey is key i of worker w: no two workers write the same key.
func workerKey(w, i int) string { return fmt.Sprintf("w%d/k%03d", w, i) }

// checkModels holds a quiescent store to the union of the workers'
// models, through every read path: Get of every key a worker owns
// (present or deleted), Len, Scan, and the union of every shard's
// ScanShard.
func checkModels(t *testing.T, s *Store, models []map[string]string) {
	t.Helper()
	want := make(map[string]string)
	for w, model := range models {
		maps.Copy(want, model)
		for i := 0; i < workerKeys; i++ {
			key := workerKey(w, i)
			mv, mok := model[key]
			if v, ok := s.Get(key); v != mv || ok != mok {
				t.Fatalf("Get(%q) = %q,%v, model has %q,%v", key, v, ok, mv, mok)
			}
		}
	}
	if n := s.Len(); n != len(want) {
		t.Fatalf("Len = %d, models hold %d keys", n, len(want))
	}
	var shards []KV
	for idx := 0; idx < s.Shards(); idx++ {
		shards = append(shards, s.ScanShard(idx)...)
	}
	for what, pairs := range map[string][]KV{"Scan": s.Scan("", 0), "ScanShard union": shards} {
		got := make(map[string]string, len(pairs))
		for _, p := range pairs {
			got[p.Key] = p.Value
		}
		if len(got) != len(pairs) || !maps.Equal(got, want) {
			t.Fatalf("%s: %d pairs (%d keys) disagree with the models' %d keys", what, len(pairs), len(got), len(want))
		}
	}
}

// TestLatchStats: the aggregate must equal the sum of the runtime's
// per-latch snapshot entries (including the wake-path split). Since
// the policy API unified the latch types, every policy registers with a
// runtime and keeps counters; an uncontended store still reports all
// zeros, whatever its policy.
func TestLatchStats(t *testing.T) {
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
	rt.Start()
	t.Cleanup(rt.Stop)
	s := newTestStore(t, Options{Shards: 1, Runtime: rt})
	if got := s.Policy().Name(); got != "lc" {
		t.Fatalf("store built without a policy runs %q, want lc", got)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Put(fmt.Sprintf("k%03d", i%50), fmt.Sprintf("v%d", (id+i)%8))
			}
		}(w)
	}
	wg.Wait()
	agg := s.LatchStats()
	if agg.Name != "kv/all" {
		t.Fatalf("aggregate name = %q", agg.Name)
	}
	var want lcrt.LockStats
	for _, ls := range rt.Snapshot().Locks {
		want.Spins += ls.Spins
		want.Blocks += ls.Blocks
		want.ControllerWakes += ls.ControllerWakes
		want.TimeoutWakes += ls.TimeoutWakes
		want.TimeoutWakesFree += ls.TimeoutWakesFree
		want.UnlockWakes += ls.UnlockWakes
	}
	if agg.Spins != want.Spins || agg.Blocks != want.Blocks ||
		agg.ControllerWakes != want.ControllerWakes ||
		agg.TimeoutWakes != want.TimeoutWakes || agg.TimeoutWakesFree != want.TimeoutWakesFree ||
		agg.UnlockWakes != want.UnlockWakes {
		t.Fatalf("aggregate %+v != runtime sum %+v", agg, want)
	}
	// Wake accounting must balance: every ended park was counted once.
	if agg.Blocks < agg.ControllerWakes+agg.TimeoutWakes+agg.UnlockWakes {
		t.Fatalf("more wakes than parks: %+v", agg)
	}

	for _, pol := range []golc.ContentionPolicy{golc.Spin, golc.Block} {
		s := newTestStore(t, Options{Shards: 2, Policy: pol})
		s.Put("a", "1")
		if agg := s.LatchStats(); agg.Spins != 0 || agg.Blocks != 0 {
			t.Fatalf("%s policy counted contention on an uncontended store: %+v", pol.Name(), agg)
		}
	}
}

// TestConcurrentMixedOps drives every operation from many goroutines
// under -race. Each worker writes only its own keys, reads them back
// against its model as it goes, and at quiescence the store must equal
// the union of the models.
func TestConcurrentMixedOps(t *testing.T) {
	for _, name := range latchPolicies {
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{Shards: 8, Policy: policyNamed(t, name)})
			models := make([]map[string]string, 8)
			var wg sync.WaitGroup
			for w := range models {
				models[w] = make(map[string]string)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng, model := rand.New(rand.NewSource(int64(w))), models[w]
					for i := 0; i < 2000; i++ {
						key := workerKey(w, rng.Intn(workerKeys))
						val := fmt.Sprintf("v%d", rng.Intn(10))
						switch rng.Intn(10) {
						case 0:
							s.Delete(key)
							delete(model, key)
						case 1, 2:
							s.Put(key, val)
							model[key] = val
						case 3:
							s.Scan("w0/", 10)
						case 4:
							s.ScanShard(s.ShardOf(key))
						default:
							mv, mok := model[key]
							if v, ok := s.Get(key); v != mv || ok != mok {
								t.Errorf("worker %d: Get(%q) = %q,%v, its last write left %q,%v", w, key, v, ok, mv, mok)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			checkModels(t, s, models)
		})
	}
}
