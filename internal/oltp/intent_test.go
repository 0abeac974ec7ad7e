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
// and IX at its partition nodes, off the latch — while another loop
// runs ReadPartition (S at a partition) and escalating transactions (X
// at a partition) on the same table. Every coarse request must be
// granted without the backstop, what it locks must hold still under it
// (a partition read twice reads the same), no increment may be lost,
// and the lock table must drain. Run with -race in CI.
func TestCoarseLockUnderIntentionTraffic(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4 * goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(prev)
	t.Run("waitdie", func(t *testing.T) {
		const th = 4
		db := newTestDB(t, golc.Block, Options{MaxRetries: -1, EscalationThreshold: th})
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
		t.Logf("metrics=%+v", m)
	})
}

// TestSlotsFullFallBackToHead: past nodeSlots intention holders the next
// IS goes to the latched head and holds by name beside the slots; an
// older X request then waits on every one of them by identity, shuts
// out later intention requests, is granted when the last slot holder
// leaves, and takes the gate down with it when it goes. Each fallback is
// counted by its cause.
func TestSlotsFullFallBackToHead(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := PartitionID("t", 0)
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
	if m := db.Metrics(); m.IntentSlotsFull != 1 || m.IntentGateUp != 0 {
		t.Fatalf("slots full once: intent_slots_full = %d, intent_gate_up = %d", m.IntentSlotsFull, m.IntentGateUp)
	}

	done := make(chan error, 1)
	go func() { done <- db.lm.acquire(older, id, X) }()
	waitForCond(t, "X request queued", func() bool { return db.Metrics().LockWaits == 1 })
	st := db.lm.stripeFor(hash)
	st.latch.Lock()
	holders := len(l.holders)
	for range l.in.holders() {
		holders++
	}
	gate := l.in.gate.Load()
	st.latch.Unlock()
	if holders != nodeSlots+1 || !gate {
		t.Fatalf("queued X waits on %d holders (want %d), gate up = %v", holders, nodeSlots+1, gate)
	}
	// With the gate up a younger IS cannot take a slot: it meets the queued
	// X on the latched path, and wait-die kills it.
	late := db.Begin()
	var ae *AbortError
	if err := db.lm.acquire(late, id, IS); !errors.As(err, &ae) || ae.Reason != AbortWaitDie {
		t.Fatalf("IS behind a queued X = %v, want wait-die abort", err)
	}
	if m := db.Metrics(); m.IntentSlotsFull != 1 || m.IntentGateUp != 1 {
		t.Fatalf("gate up once: intent_slots_full = %d, intent_gate_up = %d", m.IntentSlotsFull, m.IntentGateUp)
	}
	late.Abort()
	for _, txn := range readers {
		txn.Abort()
	}
	if err := recvErr(t, done, "X behind the intention holders"); err != nil {
		t.Fatalf("X after every intention holder left: %v", err)
	}
	older.Abort()
	if l.in.gate.Load() || db.LockEntries() != 0 {
		t.Fatalf("after X released: gate up = %v, %d entries", l.in.gate.Load(), db.LockEntries())
	}
}

// TestIntentFallbackCounts: every way the latch-free path finds a node's
// gate up — read before a claim or a raise, or again after one — sends
// the request to the latched head and counts it once in IntentGateUp. A
// node not linked yet and an upgrade of a named hold take the latched
// path too, but are no fallback and count as nothing.
func TestIntentFallbackCounts(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	id := PartitionID("t", 0)
	hash := hashID(id)
	st := db.lm.stripeFor(hash)
	want := func(step string, gateUp uint64) {
		t.Helper()
		if m := db.Metrics(); m.IntentGateUp != gateUp || m.IntentSlotsFull != 0 {
			t.Fatalf("%s: intent_gate_up = %d, intent_slots_full = %d; want %d, 0", step, m.IntentGateUp, m.IntentSlotsFull, gateUp)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	coarse, named, slotted := db.Begin(), db.Begin(), db.Begin()
	must(db.lm.acquire(named, id, IS)) // links the node
	must(db.lm.acquire(slotted, id, IS))
	l := st.nodeOf(id, hash)
	if named.held[0].slot != 0 || slotted.held[0].slot == 0 {
		t.Fatalf("first IS took a slot (%d) or the second did not (%d)", named.held[0].slot, slotted.held[0].slot)
	}
	want("node linked, slot taken", 0)

	must(db.lm.acquire(coarse, id, S)) // raises the gate; S admits both IS holds
	late := db.Begin()
	must(db.lm.acquire(late, id, IS))
	want("IS with the gate up", 1)
	var ae *AbortError
	if err := db.lm.acquire(slotted, id, IX); !errors.As(err, &ae) {
		t.Fatalf("IX raise behind an older S = %v, want wait-die abort", err)
	}
	want("slot raise with the gate up", 2)
	if err := db.lm.acquire(named, id, IX); !errors.As(err, &ae) {
		t.Fatalf("named IX upgrade behind an older S = %v, want wait-die abort", err)
	}
	want("named upgrade", 2)
	for _, txn := range []*Txn{coarse, named, slotted, late} {
		txn.Abort()
	}
	if l.in.gate.Load() {
		t.Fatal("gate still up with no coarse holder")
	}

	// The gate comes up between the fast path's first read and its claim
	// or raise: the second read sends the request back, counted once.
	raise := func() {
		st.latch.Lock()
		l.in.gate.Store(true)
		st.latch.Unlock()
	}
	lower := func() {
		st.latch.Lock()
		l.lowerGate()
		st.latch.Unlock()
	}
	enter := db.Begin()
	raise()
	if _, ok := db.lm.enterSlot(enter, l, IS); ok {
		t.Fatal("slot claimed with the gate up")
	}
	lower()
	want("claim that finds the gate up", 3)
	must(db.lm.acquire(enter, id, IS))
	raise()
	if db.lm.raiseSlot(enter, 0) {
		t.Fatal("slot raised with the gate up")
	}
	lower()
	want("raise that finds the gate up", 4)
	enter.Abort()
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty: %d", n)
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
	id := PartitionID("keep", db.Store().ShardOf(storageKey("keep", "k")))
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
