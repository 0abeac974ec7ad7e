// Package kv is a real (non-simulated) sharded in-memory key-value
// store running on load-controlled locks: the first subsystem that
// exercises the paper's mechanism as an actual service rather than a
// simulation.
//
// The latch structure mirrors internal/storage: N shards each guarded
// by its own reader/writer latch (bucket-per-latch, Fibonacci-spread
// hashing), plus a striped secondary index mapping values back to the
// keys that hold them. All latches register with one process-wide
// load-control runtime, so contention on any shard is governed by the
// same controller — the paper's decoupling claim, end to end.
//
// Lock ordering: a shard latch may be held while acquiring index
// stripe latches; stripe latches are always acquired in ascending
// stripe order; neither is ever held while acquiring a shard latch.
// This makes Put/Delete/ApplyBatch deadlock-free against each other
// and against Scan (shard latches only, one at a time) and Lookup
// (one stripe latch only).
package kv

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// Options configures a Store.
type Options struct {
	// Shards is the number of primary shards (default 16).
	Shards int
	// IndexStripes is the number of secondary-index stripes
	// (default 8).
	IndexStripes int
	// Policy is the latch contention policy — any registered golc
	// policy (default golc.LoadControlled).
	Policy golc.ContentionPolicy
	// Runtime is the load-control runtime every latch registers with
	// (default: the process-wide runtime).
	Runtime *lcrt.Runtime
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.IndexStripes <= 0 {
		o.IndexStripes = 8
	}
	if o.Policy == nil {
		o.Policy = golc.LoadControlled
	}
	return o
}

// KV is one key-value pair, as returned by Scan.
type KV struct {
	Key   string
	Value string
}

// shard is one primary bucket: a latch and its rows.
type shard struct {
	mu    *golc.RWMutex
	items map[string]string
}

// stripe is one secondary-index bucket: value -> set of keys. Stripe
// write latches are taken while a shard latch is held, so their
// acquire path is always RWMutex.LockNested (never parks — a parked
// holder would stall every waiter of the shard for up to the sleep
// timeout).
type stripe struct {
	mu   *golc.RWMutex
	keys map[string]map[string]struct{}
}

// Store is the sharded store. Create with New.
type Store struct {
	pol     atomic.Pointer[golc.ContentionPolicy]
	shards  []*shard
	stripes []*stripe
}

// New builds a store. With a nil Runtime, latches register with the
// process-wide default runtime.
func New(opts Options) *Store {
	o := opts.withDefaults()
	s := &Store{}
	s.pol.Store(&o.Policy)
	newLatch := func(name string) *golc.RWMutex {
		return golc.NewRW(name, golc.WithPolicy(o.Policy), golc.WithRuntime(o.Runtime))
	}
	for i := 0; i < o.Shards; i++ {
		s.shards = append(s.shards, &shard{
			mu:    newLatch(fmt.Sprintf("kv/shard-%03d", i)),
			items: make(map[string]string),
		})
	}
	for i := 0; i < o.IndexStripes; i++ {
		s.stripes = append(s.stripes, &stripe{
			mu:   newLatch(fmt.Sprintf("kv/stripe-%03d", i)),
			keys: make(map[string]map[string]struct{}),
		})
	}
	return s
}

// Close unregisters the store's latches from the load-control runtime.
// The store stays usable.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.mu.Close()
	}
	for _, st := range s.stripes {
		st.mu.Close()
	}
}

// SetPolicy hot-swaps the contention policy of every shard and stripe
// latch (see golc.RWMutex.SetPolicy: new waits use the policy
// immediately, standing waits drain under the old one). This is the
// serving-layer flip an operator uses to move a live store from spin
// to load-controlled latches under overload — lcserve exposes it as
// POST /policy.
func (s *Store) SetPolicy(p golc.ContentionPolicy) {
	s.pol.Store(&p)
	for _, sh := range s.shards {
		sh.mu.SetPolicy(p)
	}
	for _, st := range s.stripes {
		st.mu.SetPolicy(p)
	}
}

// Policy returns the contention policy the store's latches currently
// use (the last SetPolicy value, initially Options.Policy).
func (s *Store) Policy() golc.ContentionPolicy { return *s.pol.Load() }

// LatchStats sums the per-latch load-control counters across every
// shard and index stripe. Every policy keeps the counters (spin-policy
// latches count spins but never park, so their Blocks stay zero). The
// TimeoutWakes-vs-UnlockWakes split is the serving-layer view of the
// wake path: timeout wakes mean a latch sat free until the safety
// timeout; unlock wakes mean the release handed it off immediately.
// The wait and hold histograms merge across latches too, so the
// store-wide p99 wait is one Quantile call away.
func (s *Store) LatchStats() lcrt.LockStats {
	agg := lcrt.LockStats{Name: "kv/all"}
	add := func(m *golc.RWMutex) {
		ls := m.Stats()
		agg.Spins += ls.Spins
		agg.Blocks += ls.Blocks
		agg.ControllerWakes += ls.ControllerWakes
		agg.TimeoutWakes += ls.TimeoutWakes
		agg.UnlockWakes += ls.UnlockWakes
		agg.BlameCount += ls.BlameCount
		agg.BlameNs += ls.BlameNs
		agg.Wait.Merge(ls.Wait)
		agg.Hold.Merge(ls.Hold)
	}
	for _, sh := range s.shards {
		add(sh.mu)
	}
	for _, st := range s.stripes {
		add(st.mu)
	}
	return agg
}

// fnv64a is FNV-1a, the key hash.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndex reports which of n shards key routes to. Exported for the
// routing tests; Fibonacci hashing spreads clustered hash values, the
// same trick internal/storage uses for its bucket latches.
func ShardIndex(key string, n int) int {
	return int((fnv64a(key) * 0x9e3779b97f4a7c15) % uint64(n))
}

// ShardOf reports which of this store's shards key routes to. Layers
// above the store use it as their partition map — internal/oltp's
// partition-level locks are keyed by it, so a "hot partition" in the
// transaction layer is exactly a hot shard latch down here.
func (s *Store) ShardOf(key string) int {
	return ShardIndex(key, len(s.shards))
}

func (s *Store) shardFor(key string) *shard {
	return s.shards[s.ShardOf(key)]
}

func (s *Store) stripeIdx(value string) int {
	return ShardIndex(value, len(s.stripes))
}

// Get returns the value for key.
func (s *Store) Get(key string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.items[key]
	sh.mu.RUnlock()
	return v, ok
}

// Put stores value under key and returns the previous value, if any.
// The secondary index is updated under the shard latch, so index and
// store never disagree about a key's current value.
func (s *Store) Put(key, value string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := s.putLocked(sh, key, value)
	sh.mu.Unlock()
	return old, existed
}

// putLocked is Put's body; the caller holds sh's write latch.
func (s *Store) putLocked(sh *shard, key, value string) (string, bool) {
	old, existed := sh.items[key]
	sh.items[key] = value
	if !existed || old != value {
		s.reindex(key, old, existed, value, true)
	}
	return old, existed
}

// Delete removes key, returning the removed value, if any.
func (s *Store) Delete(key string) (string, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := s.deleteLocked(sh, key)
	sh.mu.Unlock()
	return old, existed
}

// deleteLocked is Delete's body; the caller holds sh's write latch.
func (s *Store) deleteLocked(sh *shard, key string) (string, bool) {
	old, existed := sh.items[key]
	if existed {
		delete(sh.items, key)
		s.reindex(key, old, true, "", false)
	}
	return old, existed
}

// Write is one buffered mutation for ApplyBatch: a put, or a delete
// when Delete is set (Value is then ignored).
type Write struct {
	Key    string
	Value  string
	Delete bool
}

// ApplyBatch applies a set of writes grouped by shard, taking each
// affected shard's write latch exactly once, in ascending shard order.
// This is the commit hook for transaction layers that buffer their
// write-set (e.g. internal/oltp): a transaction touching k records on
// one shard pays one latch acquisition instead of k, and the fixed
// shard order keeps concurrent batch commits deadlock-free against
// each other and against single-key writers. Within one shard, writes
// apply in slice order (later writes to the same key win). Like Scan,
// a batch is not a point-in-time snapshot across shards; atomicity
// across the batch is the caller's job (the oltp layer's logical
// record locks provide it).
func (s *Store) ApplyBatch(writes []Write) {
	// One word per write, shard above position: ascending order of the
	// words is ascending shard, slice order within a shard — a stable
	// grouping out of a plain integer sort, and the caller's slice is
	// left as it was. A batch whose shards already ascend (every
	// single-shard batch) is not sorted at all, and one that fits the
	// array allocates nothing.
	var buf [16]uint64
	order := buf[:0]
	if len(writes) > len(buf) {
		order = make([]uint64, 0, len(writes))
	}
	sorted := true
	for i, w := range writes {
		k := uint64(s.ShardOf(w.Key))<<32 | uint64(i)
		sorted = sorted && (i == 0 || order[i-1] < k)
		order = append(order, k)
	}
	if !sorted {
		slices.Sort(order)
	}
	for i := 0; i < len(order); {
		idx := order[i] >> 32
		sh := s.shards[idx]
		sh.mu.Lock()
		for ; i < len(order) && order[i]>>32 == idx; i++ {
			if w := writes[uint32(order[i])]; w.Delete {
				s.deleteLocked(sh, w.Key)
			} else {
				s.putLocked(sh, w.Key, w.Value)
			}
		}
		sh.mu.Unlock()
	}
}

// reindex moves key from the old value's posting set to the new one.
// Called with the key's shard latch held; takes the affected stripe
// latches in ascending order (see the package lock-ordering note).
func (s *Store) reindex(key, old string, hadOld bool, value string, hasNew bool) {
	oi, ni := -1, -1
	if hadOld {
		oi = s.stripeIdx(old)
	}
	if hasNew {
		ni = s.stripeIdx(value)
	}
	// Distinct affected stripes, ascending.
	held := make([]int, 0, 2)
	if oi >= 0 {
		held = append(held, oi)
	}
	if ni >= 0 && ni != oi {
		held = append(held, ni)
	}
	sort.Ints(held)
	for _, i := range held {
		//lint:allow lockpair released by the symmetric unlock loop at the end of this function
		s.stripes[i].mu.LockNested() //lint:allow lockorder stripes are taken in ascending index order, so the self-edge cannot close a cycle
	}
	if hadOld {
		set := s.stripes[oi].keys[old]
		delete(set, key)
		if len(set) == 0 {
			delete(s.stripes[oi].keys, old)
		}
	}
	if hasNew {
		set := s.stripes[ni].keys[value]
		if set == nil {
			set = make(map[string]struct{})
			s.stripes[ni].keys[value] = set
		}
		set[key] = struct{}{}
	}
	for _, i := range held {
		s.stripes[i].mu.Unlock()
	}
}

// Lookup returns the keys currently holding value (secondary index).
//
// Ordering contract: the result is in ascending lexicographic
// (byte-wise) key order, always — deterministic output is part of the
// API, not a best-effort nicety, so callers (and tests) may rely on it.
func (s *Store) Lookup(value string) []string {
	st := s.stripes[s.stripeIdx(value)]
	st.mu.RLock()
	set := st.keys[value]
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Scan returns up to limit pairs whose key has the given prefix
// (limit <= 0 means no limit). It latches one shard at a time, so a
// scan is not a point-in-time snapshot across shards — the same
// non-guarantee internal/storage's table scans make.
//
// Ordering contract: the result is in ascending lexicographic
// (byte-wise) key order, and with a limit it is the first `limit`
// matches in that order — deterministic, callers may rely on it.
func (s *Store) Scan(prefix string, limit int) []KV {
	var out []KV
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, v := range sh.items {
			if strings.HasPrefix(k, prefix) {
				out = append(out, KV{Key: k, Value: v})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ScanShard returns every pair currently stored in shard idx, in
// ascending lexicographic (byte-wise) key order, under one read latch
// — a consistent point-in-time view of that single shard. This is the
// partition-read hook for internal/oltp: a partition-level shared lock
// plus ScanShard reads a whole partition without touching record
// locks. Panics if idx is out of range (partition ids come from
// ShardOf, which never produces one).
func (s *Store) ScanShard(idx int) []KV {
	sh := s.shards[idx]
	sh.mu.RLock()
	out := make([]KV, 0, len(sh.items))
	for k, v := range sh.items {
		out = append(out, KV{Key: k, Value: v})
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the total number of keys.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// Shards returns the shard count (for routing tests and stats).
func (s *Store) Shards() int { return len(s.shards) }
