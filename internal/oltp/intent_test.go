package oltp

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/golc"
)

// TestCoarseLockUnderIntentionTraffic is the slot path's stress test:
// workers run TATP-style reads and read-modify-writes on one table — IS
// and IX at its table and partition nodes, off the latch — while
// another loop runs ReadPartition (S at a partition) and escalating
// transactions (X at a partition) on the same table. Every coarse
// request must be granted without the backstop, what it locks must hold
// still under it (a partition read twice reads the same), no increment
// may be lost, and the lock table must drain. Run with -race in CI.
func TestCoarseLockUnderIntentionTraffic(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	for _, name := range []string{"waitdie", "detect"} {
		t.Run(name, func(t *testing.T) {
			pol, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			const th = 4
			db := newTestDB(t, golc.Block, Options{DeadlockPolicy: pol, MaxRetries: -1, EscalationThreshold: th})
			const parts, perPart = 2, 8
			var keys [parts][]string
			for p := range parts {
				keys[p] = keysInPartition(t, db, "t", p, perPart)
				for _, k := range keys[p] {
					db.Store().Put(storageKey("t", k), "0")
				}
			}
			// increment is one read-modify-write, the unit of the
			// conservation check at the end.
			increment := func(txn *Txn, k string) error {
				v, _, err := txn.Read("t", k)
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(v)
				return txn.Write("t", k, strconv.Itoa(n+1))
			}
			var increments atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			defer func() { stop.Store(true); wg.Wait() }()
			const workers = 6
			for w := range workers {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for !stop.Load() {
						k := keys[rng.Intn(parts)][rng.Intn(perPart)]
						write := rng.Intn(4) == 0
						err := db.Run(func(txn *Txn) error {
							if write {
								return increment(txn, k)
							}
							_, _, err := txn.Read("t", k)
							return err
						})
						if err != nil {
							t.Errorf("intention txn failed terminally: %v", err)
							return
						}
						if write {
							increments.Add(1)
						}
					}
				}(rand.New(rand.NewSource(int64(w))))
			}

			rng := rand.New(rand.NewSource(99))
			const coarse = 200
			for i := range coarse {
				p := rng.Intn(parts)
				var err error
				if i%2 == 0 {
					err = db.Run(func(txn *Txn) error {
						first, err := txn.ReadPartition("t", p)
						if err != nil {
							return err
						}
						goruntime.Gosched()
						second, err := txn.ReadPartition("t", p)
						if err != nil {
							return err
						}
						if !slices.Equal(first, second) {
							return fmt.Errorf("partition %d changed under its S lock:\n%v\n%v", p, first, second)
						}
						return nil
					})
				} else {
					// th+1 increments under one partition: the last escalates
					// to partition X over whatever IX slots are held there.
					err = db.Run(func(txn *Txn) error {
						for _, k := range keys[p][:th+1] {
							if err := increment(txn, k); err != nil {
								return err
							}
						}
						return nil
					})
					if err == nil {
						increments.Add(th + 1)
					}
				}
				if err != nil {
					t.Fatalf("coarse txn %d: %v", i, err)
				}
			}
			stop.Store(true)
			wg.Wait()

			total := 0
			for p := range parts {
				for _, k := range keys[p] {
					v, _ := db.Store().Get(storageKey("t", k))
					n, _ := strconv.Atoi(v)
					total += n
				}
			}
			if int64(total) != increments.Load() {
				t.Fatalf("counters sum to %d, %d increments committed (lost or doubled writes)", total, increments.Load())
			}
			m := db.Metrics()
			if m.TimeoutAborts != 0 {
				t.Fatalf("timeout backstop fired %d times: %+v", m.TimeoutAborts, m)
			}
			if m.Escalations < coarse/2 {
				t.Fatalf("escalations = %d, want at least %d: %+v", m.Escalations, coarse/2, m)
			}
			if n := db.LockEntries(); n != 0 {
				t.Fatalf("quiescent lock table has %d entries", n)
			}
			if name == "detect" && m.WaitDieAborts != 0 {
				t.Fatalf("wait-die aborts under the detector: %+v", m)
			}
			t.Logf("policy=%s metrics=%+v", name, m)
		})
	}
}

// TestSlotsFullFallBackToHead: past nodeSlots intention holders the next
// IS goes to the latched head and holds by name beside the slots; an
// older X request then waits on every one of them by identity, shuts
// out later intention requests, is granted when the last slot holder
// leaves, and takes the gate down with it when it goes.
func TestSlotsFullFallBackToHead(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := TableID("t")
	hash := hashID(id)
	older := db.Begin()
	// The node's first request makes it, on the latched path.
	if err := db.Run(func(txn *Txn) error { return db.lm.acquire(txn, id, IS) }); err != nil {
		t.Fatal(err)
	}
	var readers []*Txn
	for range nodeSlots + 1 {
		txn := db.Begin()
		if err := db.lm.acquire(txn, id, IS); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, txn)
	}
	last := readers[nodeSlots]
	l := db.lm.stripeFor(hash).nodeOf(id, hash)
	if e := last.held[0]; e.slot != 0 || e.lock != l || l.holderOf(last) < 0 {
		t.Fatalf("IS past full slots: held %+v, named holder at %d", e, l.holderOf(last))
	}
	if err := db.lm.acquire(last, id, IX); err != nil { // a named upgrade beside the slots
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- db.lm.acquire(older, id, X) }()
	waitForCond(t, "X request queued", func() bool { return db.Metrics().LockWaits == 1 })
	st := db.lm.stripeFor(hash)
	st.latch.Lock()
	blockers := blockersOf(l, older, X)
	gate := l.in.gate.Load()
	st.latch.Unlock()
	if len(blockers) != nodeSlots+1 || !gate {
		t.Fatalf("queued X sees %d blockers (want %d), gate up = %v", len(blockers), nodeSlots+1, gate)
	}
	// With the gate up a younger IS cannot take a slot: it meets the queued
	// X on the latched path, and wait-die kills it.
	late := db.Begin()
	var ae *AbortError
	if err := db.lm.acquire(late, id, IS); !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("IS behind a queued X = %v, want wait-die abort", err)
	}
	late.Abort()
	for _, txn := range readers {
		txn.Abort()
	}
	if err := <-done; err != nil {
		t.Fatalf("X after every intention holder left: %v", err)
	}
	older.Abort()
	if l.in.gate.Load() || db.LockEntries() != 0 {
		t.Fatalf("after X released: gate up = %v, %d entries", l.in.gate.Load(), db.LockEntries())
	}
}

// TestIdleNodesAreSwept: nodes are never recycled, so a stripe must drop
// its idle ones as new tables are named, or the node table would grow
// with every table a client ever names — and clients do name them:
// lcserve's /txn takes the table from the request body. A node someone
// holds survives every sweep.
func TestIdleNodesAreSwept(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	holder := db.Begin()
	if _, _, err := holder.Read("keep", "k"); err != nil {
		t.Fatal(err)
	}
	const tables = 4000
	for i := range tables {
		if err := db.Run(func(txn *Txn) error {
			_, _, err := txn.Read(fmt.Sprintf("t%d", i), "k")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := 0
	for _, st := range db.lm.stripes {
		nodes += st.nnodes
	}
	if limit := len(db.lm.stripes) * (nodeSweepMin + 1); nodes > limit {
		t.Fatalf("%d nodes linked after %d tables, want at most %d", nodes, tables, limit)
	}
	id := TableID("keep")
	hash := hashID(id)
	if at := holder.find(id, hash); at < 0 || db.lm.stripeFor(hash).nodeOf(id, hash) != holder.held[at].lock {
		t.Fatal("a held node was swept")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
	}
	t.Logf("%d nodes linked after %d tables", nodes, tables)
}
