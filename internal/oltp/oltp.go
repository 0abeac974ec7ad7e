// Package oltp is a real-time transactional layer over internal/kv:
// a hierarchical two-phase lock manager plus strict-2PL transactions,
// running on the same process-wide load-control runtime as every other
// latch in the process.
//
// This is the paper's richest workload class made real. Its Shore-MT
// experiments show load control rescuing database lock-manager convoys
// at high multiprogramming — the regime where a thread holds several
// locks at once, gets descheduled, and every spinning waiter burns a
// kernel quantum. The simulator models this (internal/storage); this
// package runs it on actual hardware:
//
//   - Logical locks form a hierarchy — table → partition → record —
//     with the standard intention modes (IS, IX, S, SIX, X) and
//     compatibility matrix. Partitions are the kv store's shards
//     (kv.Store.ShardOf), so a hot partition in the transaction layer
//     is exactly a hot shard latch in the store.
//   - The lock table itself is guarded by striped latches that are
//     golc primitives registered with the shared load-control runtime
//     under the store's contention policy, so lock-manager latching —
//     one of the big physical contention sources inside database
//     engines — is governed exactly like the data-path latches, and
//     hot-swaps with them (DB.SetLatchPolicy).
//   - What those latches guard is built to be held briefly (lockmgr.go):
//     each lock is a lock head carrying a per-mode count of its granted
//     group, so the grant test is six steps however many transactions
//     hold the lock; a resource id is hashed once per acquire, and that
//     word picks the stripe, keys the stripe's table and is the first
//     thing a transaction compares when it looks through its own locks;
//     a transaction remembers the head of every lock it holds, so
//     release is by pointer, and a request its own hold already covers
//     never reaches the latch; emptied heads wait on a per-stripe free
//     list, so an uncontended acquire and release allocate nothing.
//   - IS and IX at table and partition nodes — every transaction's
//     first two locks per table — do not take the latch at all: a node
//     keeps 16 identity slots, and an intention request CASes itself
//     into one while the node's gate is down, then reads the gate again
//     and backs out to the latched head if it came up. An S, SIX or X
//     request raises the gate under the latch before it reads the
//     slots, so it sees every slot holder by identity — for its grant
//     test, for wait-die's age test and for the detector's edges — and
//     queues on them like on any holder; the last slot release grants
//     it.
//   - Logical waits block on a per-waiter channel, never on a latch:
//     transactions hold locks for far too long for spinning to make
//     sense, and a blocked transaction must not wedge the lock table.
//     No goroutine ever parks while holding a latch (the paper's
//     never-block-a-lock-holder rule, end to end).
//   - Deadlock handling is pluggable (Options.DeadlockPolicy). The
//     default is wait-die avoidance on transaction begin-timestamps: a
//     requester younger than any conflicting holder or queued
//     conflicting waiter aborts immediately (counted in Metrics);
//     older requesters wait, so every wait edge points old→young and
//     cycles cannot form. The alternative is a waits-for-graph
//     detector: every conflict waits, edges are recorded when a
//     request parks, a cycle check runs on-block, and the youngest
//     transaction in any cycle is aborted — fewer, better-targeted
//     aborts at the price of letting real cycles form first. A
//     bounded-wait timeout remains as a backstop tripwire under both.
//     DB.Run retries aborted transactions under their original
//     timestamp, which is what makes either policy live: a
//     transaction only ever gets older, so it eventually wins.
//   - Lock escalation defends the lock table itself: when a
//     transaction's record-lock count under one partition crosses
//     Options.EscalationThreshold, the next record access under that
//     partition is satisfied by a single partition-level S or X lock
//     instead, and the accumulated record entries are dropped — a
//     transaction can no longer balloon the lock table (and its
//     stripe latches) with thousands of record locks. The escalated
//     acquire is an ordinary policy-governed request: it can wait,
//     wait-die, or be picked as a deadlock victim like any other.
//   - Transactions buffer writes (reads see their own writes) and
//     apply them at commit through kv.Store.ApplyBatch — one shard
//     latch acquisition per touched shard — then release every lock
//     (strict 2PL: nothing is released early, so reads are repeatable
//     and writes are never exposed before commit).
//
// The TATP-style workload in tatp.go drives the whole stack; lcperf
// (benchmark/) runs it under lc at 1x and 8x multiprogramming, each
// beside a reference policy (spin at 1x, block at 8x).
package oltp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/wal"
)

// ErrAborted matches any transaction abort via errors.Is; the concrete
// error is always an *AbortError carrying the reason.
var ErrAborted = errors.New("oltp: transaction aborted")

// ErrTxnDone is returned by operations on a committed or aborted Txn.
var ErrTxnDone = errors.New("oltp: transaction already finished")

// ErrCallerAborted is returned by DB.Run when fn aborts the
// transaction itself (t.Abort()) and then returns nil: there is
// nothing to commit and — absent a lock-manager kill order — nothing
// to retry, so silently reporting success would be a lie and ErrTxnDone
// from a blind Commit would be a mystery.
var ErrCallerAborted = errors.New("oltp: Run: fn aborted the transaction and returned nil")

// AbortReason says why a transaction was told to abort.
type AbortReason int

const (
	// AbortWaitDie: the requester was younger than a conflicting
	// holder or queued waiter (the deadlock-avoidance policy).
	AbortWaitDie AbortReason = iota
	// AbortTimeout: a lock wait exceeded Options.WaitTimeout (the
	// backstop; under either policy this indicates overload or a bug,
	// not routine deadlock resolution).
	AbortTimeout
	// AbortDeadlock: the waits-for-graph detector found a cycle and
	// this transaction was its youngest member.
	AbortDeadlock
)

func (r AbortReason) String() string {
	switch r {
	case AbortWaitDie:
		return "wait-die"
	case AbortTimeout:
		return "timeout"
	case AbortDeadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// AbortError reports a lock-manager-initiated abort. The transaction
// must be Aborted (releasing everything it holds) and may be retried;
// DB.Run does both.
type AbortError struct {
	Reason   AbortReason
	Resource ResourceID
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("oltp: transaction aborted (%s) at %s", e.Reason, e.Resource)
}

// Is makes errors.Is(err, ErrAborted) true for every abort.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// DefaultMaxRetries is the standard DB.Run retry bound. It is a
// sentinel the caller opts into explicitly (MaxRetries:
// oltp.DefaultMaxRetries) — Options no longer rewrites 0 behind the
// caller's back, so MaxRetries: 0 genuinely means zero retries.
const DefaultMaxRetries = 100

// DefaultEscalationThreshold is the record-lock count per partition at
// which Txn.lockRecord escalates to a partition lock when
// Options.EscalationThreshold is left at its zero value.
const DefaultEscalationThreshold = 64

// Options configures a DB. The lock-table stripe latches start under
// the store's own contention policy (kv.Store.Policy), so data-path
// and lock-manager latches are governed alike — the comparison the
// benchmarks make; SetLatchPolicy and kv.Store.SetPolicy flip them
// together at runtime.
type Options struct {
	// Runtime is the load-control runtime the stripe latches register
	// with, whatever their contention policy (default: the process-wide
	// runtime).
	Runtime *lcrt.Runtime
	// DeadlockPolicy resolves logical lock conflicts (default:
	// NewWaitDiePolicy(); the alternative is NewDetectPolicy()). A
	// policy instance may carry per-DB state — never share one
	// instance between DBs.
	DeadlockPolicy DeadlockPolicy
	// LockStripes is the number of lock-table stripes (default 32).
	LockStripes int
	// WaitTimeout bounds one logical lock wait (default 2s). Both
	// deadlock policies resolve conflicts themselves, so this firing
	// means overload or a bug; it is counted separately in Metrics.
	WaitTimeout time.Duration
	// MaxRetries bounds DB.Run's abort-and-retry loop: the number of
	// retries allowed after the first attempt. 0 — the zero value —
	// means no retries (the first abort is terminal); <0 means
	// unlimited. Use DefaultMaxRetries for
	// the standard bound. (Historically 0 was silently rewritten to
	// 100, making "no retries" impossible to request.)
	MaxRetries int
	// EscalationThreshold is the number of record locks a transaction
	// may accumulate under one partition before its next record access
	// there escalates to a single partition-level lock (zero value:
	// DefaultEscalationThreshold; <0 disables escalation).
	EscalationThreshold int
	// WAL, when non-nil, makes commits durable: Txn.Commit appends the
	// buffered write-set to the log as one redo record and returns
	// only after its commit group is fsynced (group commit — see
	// internal/wal). The log must have been Opened against this DB's
	// store, so recovery replays into the same data. nil keeps the
	// seed's volatile behavior.
	WAL *wal.Log
}

func (o Options) withDefaults() Options {
	if o.DeadlockPolicy == nil {
		o.DeadlockPolicy = NewWaitDiePolicy()
	}
	if o.LockStripes <= 0 {
		o.LockStripes = 32
	}
	if o.WaitTimeout == 0 {
		o.WaitTimeout = 2 * time.Second
	}
	if o.EscalationThreshold == 0 {
		o.EscalationThreshold = DefaultEscalationThreshold
	}
	return o
}

// Metrics is the DB's counter set. All fields are atomics; read them
// through Snapshot.
type Metrics struct {
	Begins         atomic.Uint64
	Commits        atomic.Uint64
	Aborts         atomic.Uint64
	Retries        atomic.Uint64
	WaitDieAborts  atomic.Uint64
	DetectedAborts atomic.Uint64 // victims of the waits-for-graph detector
	TimeoutAborts  atomic.Uint64
	Escalations    atomic.Uint64 // record→partition lock escalations
	LockWaits      atomic.Uint64 // logical lock requests that blocked
	LatchMisses    atomic.Uint64 // lock-table latch TryLock misses (physical contention)
	CtxCancels     atomic.Uint64 // lock waits ended by the caller's context (not a deadlock victim)
}

// MetricsSnapshot is a point-in-time copy of Metrics, JSON-friendly.
type MetricsSnapshot struct {
	Begins         uint64 `json:"begins"`
	Commits        uint64 `json:"commits"`
	Aborts         uint64 `json:"aborts"`
	Retries        uint64 `json:"retries"`
	WaitDieAborts  uint64 `json:"wait_die_aborts"`
	DetectedAborts uint64 `json:"detected_aborts"`
	TimeoutAborts  uint64 `json:"timeout_aborts"`
	Escalations    uint64 `json:"escalations"`
	LockWaits      uint64 `json:"lock_waits"`
	LatchMisses    uint64 `json:"latch_misses"`
	CtxCancels     uint64 `json:"ctx_cancels"`
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Begins:         m.Begins.Load(),
		Commits:        m.Commits.Load(),
		Aborts:         m.Aborts.Load(),
		Retries:        m.Retries.Load(),
		WaitDieAborts:  m.WaitDieAborts.Load(),
		DetectedAborts: m.DetectedAborts.Load(),
		TimeoutAborts:  m.TimeoutAborts.Load(),
		Escalations:    m.Escalations.Load(),
		LockWaits:      m.LockWaits.Load(),
		LatchMisses:    m.LatchMisses.Load(),
		CtxCancels:     m.CtxCancels.Load(),
	}
}

// DB is the transactional layer over one kv.Store. Create with New.
type DB struct {
	store *kv.Store
	lm    *lockManager
	wal   *wal.Log // nil: volatile commits
	opts  Options
	tids  atomic.Uint64
	m     Metrics

	// rec is the latch runtime's flight recorder: transaction
	// lifecycle events (block, abort, deadlock victim, escalation)
	// land in the same ring as the physical lock events, so one trace
	// shows both layers. commitLat and lockWait are the DB's logical
	// latency distributions: successful DB.Run wall time (retries and
	// backoff included) and time blocked per logical lock wait.
	rec       *obs.Recorder
	commitLat *obs.Histogram
	lockWait  *obs.Histogram
}

// New builds a DB over store. The store is not owned: the caller keeps
// serving non-transactional traffic through it if it wants (single-key
// kv operations are trivially atomic; they bypass logical locking, so
// mixing them with transactions on the same keys forfeits isolation
// for those keys only).
func New(store *kv.Store, opts Options) *DB {
	o := opts.withDefaults()
	db := &DB{
		store:     store,
		wal:       o.WAL,
		opts:      o,
		rec:       latchRuntime(o).Recorder(),
		commitLat: obs.NewHistogram(8),
		lockWait:  obs.NewHistogram(4),
	}
	db.lm = newLockManager(store.Policy(), o, &db.m, db.rec, db.lockWait)
	return db
}

// Recorder returns the flight recorder the DB records into (the latch
// runtime's).
func (db *DB) Recorder() *obs.Recorder { return db.rec }

// CommitLatency returns the distribution of successful DB.Run wall
// times, retries and backoff included.
func (db *DB) CommitLatency() obs.HistSnapshot { return db.commitLat.Snapshot() }

// LockWaitHist returns the distribution of logical lock wait times
// (one observation per blocked acquire, however it ended).
func (db *DB) LockWaitHist() obs.HistSnapshot { return db.lockWait.Snapshot() }

// SetLatchPolicy hot-swaps the contention policy of the lock table's
// stripe latches (the physical latches, not the logical
// DeadlockPolicy). Pair it with kv.Store.SetPolicy so data-path and
// lock-manager latches stay governed alike; lcserve's POST /policy
// does both.
func (db *DB) SetLatchPolicy(p golc.ContentionPolicy) { db.lm.setPolicy(p) }

// LatchPolicyName reports the contention policy the DB's stripe
// latches currently use.
func (db *DB) LatchPolicyName() string {
	return db.lm.stripes[0].latch.Policy().Name()
}

// Store returns the underlying kv store.
func (db *DB) Store() *kv.Store { return db.store }

// WAL returns the write-ahead log commits are made durable through,
// or nil for a volatile DB.
func (db *DB) WAL() *wal.Log { return db.wal }

// Metrics returns a point-in-time copy of the DB's counters.
func (db *DB) Metrics() MetricsSnapshot { return db.m.snapshot() }

// PolicyName reports the deadlock policy in use ("waitdie", "detect").
func (db *DB) PolicyName() string { return db.opts.DeadlockPolicy.PolicyName() }

// LockEntries counts live lock-table entries across all stripes; a
// table or partition node held only through intention slots counts as
// one entry, however many slots are taken. A quiescent DB must report
// zero under every policy — locks are strict 2PL (escalation's record
// fold-in included), so anything left over is a leak. It latches every stripe; meant for stats and tests, not hot
// paths.
func (db *DB) LockEntries() int { return db.lm.entries() }

// Close removes the lock manager's stripe latches from the runtime's
// metrics registry, under whatever contention policy they run (the
// registry is also GC-aware, so Close is about promptness). The DB
// stays usable.
func (db *DB) Close() { db.lm.close() }

// Begin starts a transaction with a fresh begin-timestamp. Prefer Run,
// which also handles abort-and-retry.
func (db *DB) Begin() *Txn { return db.begin(context.Background(), db.tids.Add(1)) }

// BeginCtx is Begin with a caller context: every logical lock wait the
// transaction enters is cancelled when ctx is — the wait returns an
// error wrapping ctx.Err() (not an AbortError: a caller cancellation is
// terminal, not a retry signal), counted in Metrics.CtxCancels.
func (db *DB) BeginCtx(ctx context.Context) *Txn { return db.begin(ctx, db.tids.Add(1)) }

func (db *DB) begin(ctx context.Context, tid uint64) *Txn {
	db.m.Begins.Add(1)
	t := &Txn{db: db, ctx: ctx, tid: tid}
	t.held = t.heldBuf[:0]
	return t
}

// Run executes fn in a transaction, committing on nil return if fn has
// not finished the transaction itself. Aborted transactions (wait-die,
// detected deadlock, timeout) are retried under their ORIGINAL
// begin-timestamp — the retried transaction only ever gets relatively
// older, which is what guarantees it eventually wins every age-based
// conflict. Any other error rolls back and is returned as-is.
//
// Run inspects the transaction's final state rather than blindly
// committing: if fn committed itself, that is success; if the lock
// manager ordered an abort that fn swallowed (returned nil after an
// AbortError), the attempt is rolled back and retried — committing a
// kill-ordered transaction's partial work would be wrong; and if fn
// aborted the transaction voluntarily and returned nil, Run returns
// ErrCallerAborted instead of the old confusing ErrTxnDone from a
// doomed Commit call.
func (db *DB) Run(fn func(*Txn) error) error {
	return db.RunCtx(context.Background(), fn)
}

// RunCtx is Run bound to a caller context (a request context in
// lcserve, a test deadline): the retry loop stops between attempts when
// ctx is cancelled, backoff sleeps wake on cancellation, and every
// logical lock wait inside an attempt is cancellable (see BeginCtx).
// Cancellation surfaces as an error wrapping ctx.Err() and is never
// retried — unlike a deadlock-victim abort, the transaction is not
// going to be re-run older and win; the caller has left.
func (db *DB) RunCtx(ctx context.Context, fn func(*Txn) error) error {
	var t0 int64
	if db.rec.Enabled() {
		t0 = db.rec.Now()
	}
	err := db.run(ctx, fn)
	if err == nil && t0 != 0 {
		// Commit latency is end-to-end: every aborted attempt and
		// backoff sleep a caller sat through counts against it.
		db.commitLat.Observe(db.rec.Now() - t0)
	}
	return err
}

func (db *DB) run(ctx context.Context, fn func(*Txn) error) error {
	tid := db.tids.Add(1)
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("oltp: run cancelled before attempt %d: %w", attempt+1, cerr)
		}
		t := db.begin(ctx, tid)
		err := fn(t)
		if err == nil {
			switch {
			case t.state == txnCommitted:
				return nil
			case t.state == txnAborted && t.abortErr == nil:
				return ErrCallerAborted
			case t.abortErr != nil:
				// The lock manager told this transaction to die and fn
				// swallowed it: roll back (no-op if fn already did)
				// and fall through to the retry decision.
				t.Abort()
				err = t.abortErr
			default:
				if cerr := t.Commit(); cerr != nil {
					return cerr
				}
				return nil
			}
		} else {
			if t.state == txnCommitted {
				// fn committed and then failed; retrying would re-run
				// committed work. Surface the error as terminal.
				return err
			}
			t.Abort() // no-op if fn already aborted
			if !errors.Is(err, ErrAborted) {
				return err
			}
		}
		if db.opts.MaxRetries >= 0 && attempt >= db.opts.MaxRetries {
			return fmt.Errorf("oltp: giving up after %d attempts: %w", attempt+1, err)
		}
		db.m.Retries.Add(1)
		// Capped exponential backoff: give the transaction that killed
		// us time to finish before we re-collide with it. The sleep
		// wakes early if the caller gives up (the cancellation itself is
		// reported by the ctx.Err() check at the top of the next lap).
		backoff := time.NewTimer(20 * time.Microsecond << min(attempt, 6))
		select {
		case <-backoff.C:
		case <-ctx.Done():
			backoff.Stop()
		}
	}
}
