package main

import (
	"fmt"
	"os"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// engine is one in-process instance of the vertical, configured the way
// lcserve configures its own: a private load-control runtime, a
// 16-shard store, wait-die, the standard retry bound, and — for durable
// workloads — a write-ahead log with real fsync in walDir. Every latch
// and the log's durability wait run under one contention policy.
type engine struct {
	rt     *lcrt.Runtime
	store  *kv.Store
	log    *wal.Log
	db     *oltp.DB
	walDir string
}

func newEngine(pol golc.ContentionPolicy, walDir string) (*engine, error) {
	e := &engine{rt: lcrt.New(lcrt.Options{}), walDir: walDir}
	e.rt.Start()
	e.store = kv.New(kv.Options{Policy: pol, Runtime: e.rt})
	if walDir != "" {
		var err error
		e.log, _, err = wal.Open(wal.Options{Dir: walDir, Runtime: e.rt, Policy: pol}, e.store)
		if err != nil {
			e.rt.Stop()
			return nil, fmt.Errorf("open wal: %w", err)
		}
	}
	e.db = oltp.New(e.store, oltp.Options{MaxRetries: oltp.DefaultMaxRetries, Runtime: e.rt, WAL: e.log})
	return e, nil
}

// close shuts the engine down without a checkpoint (so a later wal.Open
// replays the whole log) and keeps walDir. The log closes first: its
// final group commit still parks and wakes through the live runtime.
func (e *engine) close() error {
	var err error
	if e.log != nil {
		err = e.log.Close()
		e.log = nil
	}
	e.rt.Stop()
	e.db.Close()
	e.store.Close()
	return err
}

// discard closes the engine and removes its log.
func (e *engine) discard() {
	e.close() //nolint:errcheck // a discarded engine's log is about to be deleted
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// counters is one reading of every layer's public counters, from an
// in-process engine or from lcserve's GET /stats.
type counters struct {
	rt          lcrt.Snapshot
	latch       lcrt.LockStats // kv shard and stripe latches, summed
	db          oltp.MetricsSnapshot
	wal         wal.Stats
	lockEntries int
	// The logical lock-wait distribution: as buckets in process (so a
	// window can be cut out of it), as a summary over HTTP.
	lockWait    obs.HistSnapshot
	lockWaitSum *obs.HistSummary
	serverCPUms float64 // lcserve's user+system CPU time; 0 in process
}

func (e *engine) counters() counters {
	c := counters{
		rt:          e.rt.Snapshot(),
		latch:       e.store.LatchStats(),
		db:          e.db.Metrics(),
		lockEntries: e.db.LockEntries(),
		lockWait:    e.db.LockWaitHist(),
	}
	if e.log != nil {
		c.wal = e.log.Stats()
	}
	return c
}

const groupCommitHandle = "wal/group-commit"

// lockTotals sums spins over every lock of a snapshot and picks out the
// log's durability-wait handle.
func lockTotals(s lcrt.Snapshot) (spins uint64, groupCommit lcrt.LockStats) {
	for _, ls := range s.Locks {
		spins += ls.Spins
		if ls.Name == groupCommitHandle {
			groupCommit = ls
		}
	}
	return spins, groupCommit
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics turns two readings around a window into the counter-fed
// per-layer metrics. txns is what the window committed.
func layerMetrics(m metrics, before, after counters, txns float64) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	rt0, rt1 := before.rt, after.rt

	spins0, gc0 := lockTotals(rt0)
	spins1, gc1 := lockTotals(rt1)
	wait := histDelta(rt1.WaitHist, rt0.WaitHist)
	m.set("golc.wait_p50_us", us(wait.Quantile(0.50)))
	m.set("golc.wait_p99_us", us(wait.Quantile(0.99)))
	m.set("golc.spins_per_txn", ratio(float64(spins1-spins0), txns))

	parks := d(rt1.Claims, rt0.Claims) + d(rt1.ForcedClaims, rt0.ForcedClaims)
	park := histDelta(rt1.ParkHist, rt0.ParkHist)
	m.set("runtime.parks_per_txn", ratio(parks, txns))
	m.set("runtime.unlock_wakes_per_park", ratio(d(rt1.UnlockWakes, rt0.UnlockWakes), parks))
	m.set("runtime.controller_wakes_per_park", ratio(d(rt1.ControllerWakes, rt0.ControllerWakes), parks))
	m.set("runtime.claim_cancels_per_park", ratio(d(rt1.Cancels, rt0.Cancels), parks))
	m.set("runtime.timeout_wakes", d(rt1.TimeoutWakes, rt0.TimeoutWakes))
	m.set("runtime.slot_rejects", d(rt1.SlotRejects, rt0.SlotRejects))
	m.set("runtime.park_p50_us", us(park.Quantile(0.50)))
	m.set("runtime.park_p99_us", us(park.Quantile(0.99)))

	latchWait := histDelta(after.latch.Wait, before.latch.Wait)
	m.set("kv.latch_wait_p99_us", us(latchWait.Quantile(0.99)))
	m.set("kv.latch_spins_per_txn", ratio(d(after.latch.Spins, before.latch.Spins), txns))
	m.set("kv.latch_parks_per_txn", ratio(d(after.latch.Blocks, before.latch.Blocks), txns))

	db0, db1 := before.db, after.db
	commits := d(db1.Commits, db0.Commits)
	m.set("oltp.aborts_per_commit", ratio(d(db1.Aborts, db0.Aborts), commits))
	m.set("oltp.retries_per_commit", ratio(d(db1.Retries, db0.Retries), commits))
	m.set("oltp.lock_waits_per_commit", ratio(d(db1.LockWaits, db0.LockWaits), commits))
	m.set("oltp.latch_misses_per_commit", ratio(d(db1.LatchMisses, db0.LatchMisses), commits))
	m.set("oltp.timeout_aborts", d(db1.TimeoutAborts, db0.TimeoutAborts))
	lw := after.lockWaitSum
	if lw == nil {
		h := histDelta(after.lockWait, before.lockWait)
		s := h.Summary()
		lw = &s
	}
	m.set("oltp.lock_wait_p50_us", us(lw.P50Ns))
	m.set("oltp.lock_wait_p99_us", us(lw.P99Ns))

	// The log's group-size and fsync distributions cover the log's whole
	// life: it is private to the phase, and batching has no warm-up bias
	// worth cutting out. The counters are window deltas.
	w0, w1 := before.wal, after.wal
	appends := d(w1.Appends, w0.Appends)
	m.set("wal.group_mean", ratio(appends, d(w1.Syncs, w0.Syncs)))
	m.set("wal.group_p99", float64(w1.GroupSize.P99Ns)) // a count: the histogram is unit-agnostic
	m.set("wal.fsync_p50_us", us(w1.SyncLatency.P50Ns))
	m.set("wal.fsync_p99_us", us(w1.SyncLatency.P99Ns))
	m.set("wal.syncs_per_commit", ratio(d(w1.Syncs, w0.Syncs), appends))
	m.set("wal.bytes_per_commit", ratio(d(w1.BytesWritten, w0.BytesWritten), appends))
	m.set("wal.wait_spins_per_commit", ratio(d(gc1.Spins, gc0.Spins), appends))
	m.set("wal.wait_parks_per_commit", ratio(d(gc1.Blocks, gc0.Blocks), appends))
}
