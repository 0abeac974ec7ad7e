package oltp

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The multi-statement conflict workload: every transaction touches
// RecordsPerTxn records spread across Partitions partitions, a
// configurable fraction of them drawn from a small shared hot set, in
// RANDOM order — deliberately unsorted, so two transactions regularly
// grab overlapping records in opposite orders. That is the shape where
// deadlocks would form (wait-die kills on every age-inverted conflict,
// so none does) and where lock escalation pays off (a transaction touching
// many records in one partition folds them into one partition lock
// instead of ballooning the lock table). TATP, by contrast, touches
// one or two records per transaction and never exercises either.
//
// Write touches are read-modify-writes (Read then Write on the same
// record), so the S→X upgrade — the dual-upgrade deadlock shape — is
// part of the mix, not just plain X acquisitions.

// ConflictConfig sizes the conflict workload.
type ConflictConfig struct {
	// Partitions is how many distinct kv shards the key population
	// spans (default 4; capped at the store's shard count).
	Partitions int
	// PerPartition is the number of keys populated per partition
	// (default 256).
	PerPartition int
	// RecordsPerTxn is how many records each transaction touches
	// (default 16). Values above the DB's escalation threshold make
	// transactions escalate mid-flight.
	RecordsPerTxn int
	// SpreadPartitions is how many partitions one transaction's
	// records span (default: all of Partitions). 1 concentrates every
	// touch in a single partition — the pure escalation shape.
	SpreadPartitions int
	// OverlapFrac is the fraction of touches drawn from the hot set
	// (default 0.5). Zero is honored (fully uniform); negative selects
	// the default.
	OverlapFrac float64
	// HotPerPartition is the hot-set size per partition (default 8).
	HotPerPartition int
	// WriteFrac is the fraction of touches that are read-modify-writes
	// rather than plain reads (default 0.5; zero honored, negative
	// selects the default).
	WriteFrac float64
}

func (c ConflictConfig) withDefaults() ConflictConfig {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.PerPartition <= 0 {
		c.PerPartition = 256
	}
	if c.RecordsPerTxn <= 0 {
		c.RecordsPerTxn = 16
	}
	if c.PerPartition < 2*c.RecordsPerTxn {
		// pickTouches rejection-samples distinct keys; keep the
		// population comfortably larger than one transaction's draw so
		// it terminates fast even at SpreadPartitions=1.
		c.PerPartition = 2 * c.RecordsPerTxn
	}
	if c.SpreadPartitions <= 0 || c.SpreadPartitions > c.Partitions {
		c.SpreadPartitions = c.Partitions
	}
	if c.OverlapFrac < 0 {
		c.OverlapFrac = 0.5
	}
	if c.HotPerPartition <= 0 {
		c.HotPerPartition = 8
	}
	if c.HotPerPartition > c.PerPartition {
		c.HotPerPartition = c.PerPartition
	}
	if c.WriteFrac < 0 {
		c.WriteFrac = 0.5
	}
	return c
}

const conflictTable = "conf"

// Conflict drives the conflict workload against one DB. Safe for
// concurrent use; each worker supplies its own rand.Rand.
type Conflict struct {
	db   *DB
	cfg  ConflictConfig
	keys [][]string // keys[p] = populated keys whose storage key routes to partition p
}

// NewConflict probes the store's shard map for keys landing on each of
// the first cfg.Partitions partitions, populates them (directly —
// initial load needs no isolation), and returns the driver.
func NewConflict(db *DB, cfg ConflictConfig) *Conflict {
	c := cfg.withDefaults()
	if c.Partitions > db.store.Shards() {
		c.Partitions = db.store.Shards()
		if c.SpreadPartitions > c.Partitions {
			c.SpreadPartitions = c.Partitions
		}
	}
	w := &Conflict{db: db, cfg: c, keys: make([][]string, c.Partitions)}
	filled := 0
	for i := 0; filled < c.Partitions; i++ {
		k := fmt.Sprintf("r%07d", i)
		p := db.store.ShardOf(storageKey(conflictTable, k))
		if p >= c.Partitions || len(w.keys[p]) >= c.PerPartition {
			continue
		}
		w.keys[p] = append(w.keys[p], k)
		db.store.Put(storageKey(conflictTable, k), "0")
		if len(w.keys[p]) == c.PerPartition {
			filled++
		}
	}
	return w
}

// Config returns the (defaulted, shard-capped) configuration in use.
func (w *Conflict) Config() ConflictConfig { return w.cfg }

// conflictTouch is one record access of a conflict transaction.
type conflictTouch struct {
	part  int
	key   string
	write bool
}

// pickTouches assembles one transaction's record set: RecordsPerTxn
// distinct records over SpreadPartitions partitions, each drawn from
// the hot set with probability OverlapFrac, in random order. At
// extreme overlap the hot population (SpreadPartitions x
// HotPerPartition) can be smaller than one transaction's draw, so
// rejection sampling is bounded: once the random draws stop finding
// fresh keys, the remainder is filled deterministically from the
// uniform population (which withDefaults keeps at >= 2x
// RecordsPerTxn per partition) instead of spinning forever.
func (w *Conflict) pickTouches(rng *rand.Rand) []conflictTouch {
	base := rng.Intn(w.cfg.Partitions)
	touches := make([]conflictTouch, 0, w.cfg.RecordsPerTxn)
	seen := make(map[string]struct{}, w.cfg.RecordsPerTxn)
	rejects := 0
	for len(touches) < w.cfg.RecordsPerTxn && rejects < 8*w.cfg.RecordsPerTxn {
		part := (base + rng.Intn(w.cfg.SpreadPartitions)) % w.cfg.Partitions
		var key string
		if rng.Float64() < w.cfg.OverlapFrac {
			key = w.keys[part][rng.Intn(w.cfg.HotPerPartition)]
		} else {
			key = w.keys[part][rng.Intn(len(w.keys[part]))]
		}
		if _, dup := seen[key]; dup {
			rejects++
			continue
		}
		seen[key] = struct{}{}
		touches = append(touches, conflictTouch{part: part, key: key, write: rng.Float64() < w.cfg.WriteFrac})
	}
	for off := 0; len(touches) < w.cfg.RecordsPerTxn; off++ {
		// Deterministic fill: first unseen keys of the spread, round-robin.
		part := (base + off%w.cfg.SpreadPartitions) % w.cfg.Partitions
		key := w.keys[part][(off/w.cfg.SpreadPartitions)%len(w.keys[part])]
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		touches = append(touches, conflictTouch{part: part, key: key, write: rng.Float64() < w.cfg.WriteFrac})
	}
	return touches
}

// Run executes one conflict transaction via DB.Run. The record set is
// picked once, outside the retry loop, so a retried transaction
// replays the same conflict — the honest comparison between policies.
// The returned error is terminal: retries exhausted or a real failure.
func (w *Conflict) Run(rng *rand.Rand) error {
	touches := w.pickTouches(rng)
	return w.db.Run(func(t *Txn) error {
		for _, tc := range touches {
			v, ok, err := t.Read(conflictTable, tc.key)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("conflict: record %s/%s missing", conflictTable, tc.key)
			}
			if tc.write {
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("conflict: record %s/%s: %w", conflictTable, tc.key, err)
				}
				if err := t.Write(conflictTable, tc.key, strconv.Itoa(n+1)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// TotalWrites sums the committed counters across the whole population
// — the workload's conservation check: it must equal the number of
// committed record writes.
func (w *Conflict) TotalWrites() int {
	total := 0
	for _, keys := range w.keys {
		for _, k := range keys {
			v, ok := w.db.store.Get(storageKey(conflictTable, k))
			if !ok {
				continue
			}
			// A counter that does not parse adds nothing, so the
			// conservation check fails on it rather than passing over it.
			if n, err := strconv.Atoi(v); err == nil {
				total += n
			}
		}
	}
	return total
}
