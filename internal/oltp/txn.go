package oltp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/golc/obs"
	"repro/internal/kv"
)

// txnState tracks a transaction's lifecycle. A Txn is driven by one
// goroutine (the usual database-session contract), so state needs no
// atomicity; the lock manager's shared structures are latch-guarded.
type txnState int

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

// Txn is one transaction: strict two-phase locking over the DB's
// hierarchical lock manager, with a buffered write-set applied at
// commit. Use DB.Run for automatic abort-and-retry; Begin/Commit/Abort
// are the manual API.
type Txn struct {
	db *DB
	// ctx is the caller's context (never nil; Begin uses Background).
	// Logical lock waits derive their cancellable wait context from it,
	// so the caller leaving kills the wait just like a deadlock victim
	// order does — except it is terminal rather than retried.
	ctx      context.Context
	tid      uint64 // begin-timestamp: smaller = older, wins age-based conflicts
	state    txnState
	abortErr *AbortError         // the lock manager's kill order, if any (Run's retry signal)
	writes   map[string]kv.Write // keyed by storage key; last write wins; nil until the first write

	// held is every lock the transaction holds, in grant order. It starts
	// on heldBuf, so the common transaction — a handful of locks — is one
	// allocation, locks included. index is nil until held outgrows
	// heldScan (see find).
	held    []heldLock
	index   map[uint64]int32
	heldBuf [8]heldLock
}

// heldLock is one entry of Txn.held: what is held, and enough to get
// back to it without the lock table — the id's hash (hashed once, at
// acquire) and the lock head itself. An IS or IX hold taken off the
// latch names its node's slot instead of a place in the named group.
type heldLock struct {
	id   ResourceID
	hash uint64
	mode Mode
	lock *dbLock
	recs int32 // partition entries: record locks held beneath it (escalation trigger)
	slot int32 // 1 + the index of lock.in's slot this hold sits in; 0 for a named hold
}

// heldScan is how many held locks find will scan linearly; past it the
// transaction gets a hash→position map, so one holding thousands of
// record locks (escalation off) does not go quadratic.
const heldScan = 32

// find returns id's position in t.held, or -1. hash is hashID(id); it
// is the word compared first, so a miss rarely touches an id's strings.
func (t *Txn) find(id ResourceID, hash uint64) int {
	if t.index != nil {
		i, ok := t.index[hash]
		if !ok {
			return -1
		}
		if t.held[i].id == id {
			return int(i)
		}
		// Two held ids share a hash; the map knows only the first. Scan.
	}
	for i := range t.held {
		if t.held[i].hash == hash && t.held[i].id == id {
			return i
		}
	}
	return -1
}

// reindex rebuilds index from held — or drops it when held is short
// enough to scan. The first entry with a given hash owns its slot. It
// is sized past held: a transaction that needs it is usually still
// growing.
func (t *Txn) reindex() {
	t.index = nil
	if len(t.held) <= heldScan {
		return
	}
	t.index = make(map[uint64]int32, 2*len(t.held))
	for i := range t.held {
		if _, taken := t.index[t.held[i].hash]; !taken {
			t.index[t.held[i].hash] = int32(i)
		}
	}
}

// TID returns the transaction's begin-timestamp (stable across Run's
// retries — that is what makes wait-die live).
func (t *Txn) TID() uint64 { return t.tid }

// storageKey flattens (table, key) into the kv keyspace. Tables are
// namespaces by prefix; partition ids come from the store's shard map,
// so "hot partition" means "hot shard latch".
func storageKey(table, key string) string { return table + "/" + key }

func (t *Txn) active() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	return nil
}

// noteHeld records a granted lock — an upgrade of the entry at
// position at, or a new entry when at is negative — and returns its
// position. Called by the lock manager on the transaction's own
// goroutine.
func (t *Txn) noteHeld(at int, id ResourceID, hash uint64, m Mode, l *dbLock) int {
	if at >= 0 {
		t.held[at].mode = m
		return at
	}
	at = len(t.held)
	t.held = append(t.held, heldLock{id: id, hash: hash, mode: m, lock: l})
	if t.index == nil {
		t.reindex()
	} else if _, taken := t.index[hash]; !taken {
		t.index[hash] = int32(at)
	}
	return at
}

// noteAbort records the lock manager's kill order on the transaction
// and returns it. Always called on the transaction's own goroutine
// (the failing acquire); Run reads it to distinguish "must retry" from
// "fn gave up voluntarily" even when fn swallows the error.
func (t *Txn) noteAbort(e *AbortError) error {
	t.abortErr = e
	return e
}

// lockRecord climbs the hierarchy for one record access: intention
// modes on table and partition, then the leaf mode on the record. A
// coarse hold (S/SIX/X at an ancestor, per covering) short-circuits
// the descent — that is the point of hierarchical locking. Each level
// is one acquireAt: a request the transaction's hold already covers
// comes back from it without touching the lock table.
func (t *Txn) lockRecord(table string, part int, key string, write bool) error {
	intent, leaf := IS, S
	if write {
		intent, leaf = IX, X
	}
	lm := t.db.lm
	ti, err := lm.acquireAt(t, TableID(table), intent)
	if err != nil || coarseCovers(t.held[ti].mode, write) {
		return err
	}
	pi, err := lm.acquireAt(t, PartitionID(table, part), intent)
	if err != nil || coarseCovers(t.held[pi].mode, write) {
		return err
	}
	if th := t.db.opts.EscalationThreshold; th > 0 && int(t.held[pi].recs) >= th {
		return t.escalate(pi, write)
	}
	// A record grant that adds an entry (an upgrade of a held record does
	// not) counts toward the partition's escalation trigger.
	n := len(t.held)
	if _, err := lm.acquireAt(t, RecordID(table, part, key), leaf); err != nil {
		return err
	}
	if len(t.held) > n {
		t.held[pi].recs++
	}
	return nil
}

// escalate folds a transaction's accumulated record locks under the
// partition at t.held[pi] into a single partition-level hold: S when
// every folded record hold and the triggering access are reads, X
// otherwise (an S partition hold must never cover buffered writes — the
// commit would write under a read lock). The acquire goes through the
// ordinary policy-governed path, so escalation can wait, wait-die, or
// be picked as a deadlock victim like any other request; the record
// entries are dropped only after the coarser lock is granted, so there
// is no window where neither granularity is held. The lub lattice does
// the mode math: IS+S→S, IX+X→X, S+X→X — never a hole.
//
// This is the lock table's defense against one transaction ballooning
// it (and its stripe latches) with thousands of record entries — after
// escalation the transaction occupies O(1) entries per partition.
func (t *Txn) escalate(pi int, write bool) error {
	pid := t.held[pi].id
	under := func(e *heldLock) bool {
		return e.id.Level == LevelRecord && e.id.Table == pid.Table && e.id.Partition == pid.Partition
	}
	target := S
	if write {
		target = X
	}
	for i := range t.held {
		if e := &t.held[i]; under(e) && e.mode != S {
			target = X // an X record hold must stay write-covered
			break
		}
	}
	// The target is settled before the acquire and the fold works on
	// positions after it: nothing computed from t.held is carried across
	// a call that may grow it.
	pi, err := t.db.lm.acquireAt(t, pid, target)
	if err != nil {
		return err
	}
	t.held[pi].recs = 0
	kept := 0
	for i := range t.held {
		if e := &t.held[i]; under(e) {
			t.db.lm.release(t, e)
			continue
		}
		t.held[kept] = t.held[i]
		kept++
	}
	// Zero the vacated tail: it would pin retired heads and the ids'
	// strings for as long as the transaction lives.
	clear(t.held[kept:])
	t.held = t.held[:kept]
	t.reindex()
	t.db.m.Escalations.Add(1)
	if t.db.rec.Enabled() {
		t.db.rec.Event(obs.EvEscalation, pid.String(), target.String(), int64(t.tid))
	}
	return nil
}

// coarseCovers reports whether a hold at an ancestor level already
// grants the whole subtree for this access: S, SIX and X cover reads;
// only X covers writes (SIX still needs record-level X below).
func coarseCovers(m Mode, write bool) bool {
	if write {
		return m == X
	}
	return m == S || m == SIX || m == X
}

// Read returns the committed value for (table, key) — or this
// transaction's own buffered write. Locks: IS table → IS partition →
// S record (strict 2PL, so reads are repeatable).
func (t *Txn) Read(table, key string) (string, bool, error) {
	if err := t.active(); err != nil {
		return "", false, err
	}
	sk := storageKey(table, key)
	if w, ok := t.writes[sk]; ok {
		if w.Delete {
			return "", false, nil
		}
		return w.Value, true, nil
	}
	if err := t.lockRecord(table, t.db.store.ShardOf(sk), key, false); err != nil {
		return "", false, err
	}
	v, ok := t.db.store.Get(sk)
	return v, ok, nil
}

// Write buffers a put of (table, key) = value. Locks: IX table → IX
// partition → X record, taken now (growing phase); the store is only
// touched at Commit.
func (t *Txn) Write(table, key, value string) error {
	if err := t.active(); err != nil {
		return err
	}
	sk := storageKey(table, key)
	if err := t.lockRecord(table, t.db.store.ShardOf(sk), key, true); err != nil {
		return err
	}
	t.buffer(kv.Write{Key: sk, Value: value})
	return nil
}

// Delete buffers a delete of (table, key). Same locking as Write.
func (t *Txn) Delete(table, key string) error {
	if err := t.active(); err != nil {
		return err
	}
	sk := storageKey(table, key)
	if err := t.lockRecord(table, t.db.store.ShardOf(sk), key, true); err != nil {
		return err
	}
	t.buffer(kv.Write{Key: sk, Delete: true})
	return nil
}

// buffer adds w to the write-set (read-only transactions never make
// the map).
func (t *Txn) buffer(w kv.Write) {
	if t.writes == nil {
		t.writes = make(map[string]kv.Write)
	}
	t.writes[w.Key] = w
}

// ReadPartition reads every record of table in partition part under
// one partition-level S lock — no record locks at all, which is what
// the intention-lock hierarchy buys: the S hold at the partition
// conflicts with any writer's IX there, and nothing finer is needed.
// The result is in ascending key order (kv's ordering contract) with
// the transaction's own buffered writes overlaid.
func (t *Txn) ReadPartition(table string, part int) ([]kv.KV, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	if part < 0 || part >= t.db.store.Shards() {
		// Validate before taking any lock: panicking inside ScanShard
		// with partition locks held would wedge every conflicting txn.
		return nil, fmt.Errorf("oltp: partition %d out of range [0,%d)", part, t.db.store.Shards())
	}
	ti, err := t.db.lm.acquireAt(t, TableID(table), IS)
	if err != nil {
		return nil, err
	}
	if !coarseCovers(t.held[ti].mode, false) {
		if err := t.db.lm.acquire(t, PartitionID(table, part), S); err != nil {
			return nil, err
		}
	}
	prefix := table + "/"
	scanned := t.db.store.ScanShard(part)
	seen := make(map[string]struct{}, len(scanned))
	var out []kv.KV
	for _, p := range scanned {
		if !strings.HasPrefix(p.Key, prefix) {
			continue
		}
		seen[p.Key] = struct{}{}
		if w, buffered := t.writes[p.Key]; buffered {
			if w.Delete {
				continue
			}
			p.Value = w.Value
		}
		out = append(out, kv.KV{Key: strings.TrimPrefix(p.Key, prefix), Value: p.Value})
	}
	// Overlay buffered inserts for this (table, partition) that the
	// scan did not see. "Did not see" is judged against the scan output
	// itself (the seen set), never a second latched store.Get: the Get
	// cost one extra shard-latch acquisition per buffered write, and a
	// non-transactional Put landing between ScanShard and Get made the
	// insert look already-overlaid and silently dropped the
	// transaction's own buffered write from its own read.
	for sk, w := range t.writes {
		if w.Delete || !strings.HasPrefix(sk, prefix) || t.db.store.ShardOf(sk) != part {
			continue
		}
		if _, ok := seen[sk]; ok {
			continue // overlaid in place above
		}
		out = append(out, kv.KV{Key: strings.TrimPrefix(sk, prefix), Value: w.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Commit applies the buffered write-set (one shard latch per touched
// shard, via kv.Store.ApplyBatch) and releases every lock. Strict 2PL:
// locks are held until after the writes land, so no other transaction
// can observe a partial commit.
//
// A transaction the lock manager ordered to abort (wait-die, detected
// deadlock, timeout — some acquire returned an *AbortError) cannot
// commit: its write-set is partial by construction. Commit rolls it
// back and returns the original kill order, so a caller that swallowed
// the acquire error cannot sneak partial work into the store — DB.Run
// then sees the aborted state and retries as usual.
func (t *Txn) Commit() error {
	if err := t.active(); err != nil {
		return err
	}
	if t.abortErr != nil {
		t.Abort()
		return t.abortErr
	}
	if len(t.writes) > 0 {
		batch := make([]kv.Write, 0, len(t.writes))
		for _, w := range t.writes {
			batch = append(batch, w)
		}
		if w := t.db.wal; w != nil {
			// Write-ahead: the record must be durable before the batch
			// touches the store. Commit returns once this record's
			// group is fsynced; on any log error nothing was applied,
			// so the transaction aborts cleanly — a durability failure
			// is terminal, not a retry signal (no AbortError).
			lsn, err := w.Commit(batch)
			if err != nil {
				t.Abort()
				return fmt.Errorf("oltp: commit not durable: %w", err)
			}
			t.db.store.ApplyBatch(batch)
			// Locks are still held, so the applied floor (the next
			// checkpoint's cut) advances only over fully visible
			// commits.
			w.NoteApplied(lsn)
		} else {
			t.db.store.ApplyBatch(batch)
		}
	}
	t.db.lm.releaseAll(t)
	t.state = txnCommitted
	t.db.m.Commits.Add(1)
	return nil
}

// Abort discards the write-set and releases every lock. Safe to call
// on an already-finished transaction (no-op), so defer t.Abort() is
// the idiomatic cleanup.
func (t *Txn) Abort() {
	if t.state != txnActive {
		return
	}
	clear(t.writes)
	t.db.lm.releaseAll(t)
	t.state = txnAborted
	t.db.m.Aborts.Add(1)
}
