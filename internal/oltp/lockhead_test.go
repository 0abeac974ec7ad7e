package oltp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
)

// heldMode reports the mode t currently holds on id (ModeNone if none).
func (t *Txn) heldMode(id ResourceID) Mode {
	if i := t.find(id, hashID(id)); i >= 0 {
		return t.held[i].mode
	}
	return ModeNone
}

// slotHold is one occupied slot: its index and what it holds.
type slotHold struct {
	i int
	holder
}

// viewSlots reads node l's occupied slots once (a record head has
// none). The checks below work from this view: under -race every slot
// read is instrumented, and re-reading all of them per transaction and
// mode would cost more than the rest of a step.
func viewSlots(l *dbLock) []slotHold {
	var v []slotHold
	if l.in != nil {
		for i := range l.in.slots {
			if t, m := l.in.slots[i].load(); t != nil {
				v = append(v, slotHold{i, holder{t, m}})
			}
		}
	}
	return v
}

// slotModeOf returns t's mode in the slot view, or ModeNone.
func slotModeOf(slots []slotHold, t *Txn) Mode {
	for _, s := range slots {
		if s.txn == t {
			return s.mode
		}
	}
	return ModeNone
}

// holderWalkGrantable is the grant test as it was defined before the
// lock head carried a summary of its granted group — walk the holders,
// named and in the slots, skip the requester, consult compat. It lives
// on here as the oracle the counts-based grantable is held to.
func holderWalkGrantable(l *dbLock, slots []slotHold, txn *Txn, mode Mode) bool {
	for _, h := range l.holders {
		if h.txn != txn && !compat[h.mode][mode] {
			return false
		}
	}
	for _, s := range slots {
		if s.txn != txn && !compat[s.mode][mode] {
			return false
		}
	}
	return true
}

// checkHead holds one linked lock head to its invariants. Caller holds
// the stripe latch. A transaction's held list is read only while no
// goroutine is driving it (!busy). A busy transaction may also be
// claiming a slot that it is about to give back to the gate, so its
// slot entries are left out of the compatibility check.
func checkHead(l *dbLock, txns []*oracleTxn) error {
	if l.in == nil && len(l.holders) == 0 && len(l.waiters) == 0 {
		return fmt.Errorf("%v: linked head with no holder and no waiter", l.id)
	}
	slots := viewSlots(l)
	group := l.holders[:len(l.holders):len(l.holders)]
	for _, s := range slots {
		if s.mode != IS && s.mode != IX {
			return fmt.Errorf("%v: slot %d holds %v", l.id, s.i, s.mode)
		}
		i := slices.IndexFunc(txns, func(tx *oracleTxn) bool { return tx.Txn == s.txn })
		if i < 0 {
			return fmt.Errorf("%v: slot %d held by txn %d, which has finished", l.id, s.i, s.txn.tid)
		} else if txns[i].busy {
			continue
		}
		if l.holderOf(s.txn) >= 0 {
			return fmt.Errorf("%v: txn %d holds both by name and in slot %d", l.id, s.txn.tid, s.i)
		}
		group = append(group, s.holder)
	}
	var counts [6]int32
	for i, h := range group {
		if h.txn == nil || h.mode < IS || h.mode > X {
			return fmt.Errorf("%v: holder %d is %+v", l.id, i, h)
		}
		if i < len(l.holders) {
			counts[h.mode]++
		}
		for _, o := range group[:i] {
			if o.txn == h.txn {
				return fmt.Errorf("%v: txn %d listed twice", l.id, h.txn.tid)
			}
			if !compat[o.mode][h.mode] {
				return fmt.Errorf("%v: holders txn %d (%v) and txn %d (%v) are incompatible",
					l.id, o.txn.tid, o.mode, h.txn.tid, h.mode)
			}
		}
	}
	if counts != l.counts {
		return fmt.Errorf("%v: counts %v, holders say %v", l.id, l.counts, counts)
	}
	if l.in != nil {
		// The gate is up exactly while something coarse is held or
		// awaited: down with one, a slot could be claimed beside it; up
		// without one, nothing would ever lower it again.
		coarse := l.counts[S]+l.counts[SIX]+l.counts[X] != 0
		for _, w := range l.waiters {
			coarse = coarse || w.mode > IX
		}
		if gate := l.in.gate.Load(); gate != coarse {
			return fmt.Errorf("%v: gate up = %v with a coarse holder or waiter = %v (counts %v)", l.id, gate, coarse, l.counts)
		}
	}
	for _, w := range l.waiters {
		cur := ModeNone
		if i := l.holderOf(w.txn); i >= 0 {
			cur = l.holders[i].mode
		}
		if w.cur != cur {
			return fmt.Errorf("%v: waiter txn %d recorded cur %v, holds %v", l.id, w.txn.tid, w.cur, cur)
		}
		if m := slotModeOf(slots, w.txn); m != ModeNone {
			return fmt.Errorf("%v: waiter txn %d still holds %v in a slot", l.id, w.txn.tid, m)
		}
	}
	for _, tx := range txns {
		cur := ModeNone
		if i := l.holderOf(tx.Txn); i >= 0 {
			cur = l.holders[i].mode
		}
		for m := IS; m <= X; m++ {
			if err := grantableAgrees(l, slots, tx.Txn, cur, m); err != nil {
				return err
			}
		}
		if tx.busy {
			continue
		}
		// Table → transaction: an idle holder's own record agrees, named
		// or in a slot.
		if i := l.holderOf(tx.Txn); i >= 0 {
			at := tx.find(l.id, l.hash)
			if at < 0 || tx.held[at].lock != l || tx.held[at].mode != l.holders[i].mode || tx.held[at].slot != 0 {
				return fmt.Errorf("%v: holder txn %d (%v) has no matching held entry (at %d)", l.id, tx.tid, l.holders[i].mode, at)
			}
		}
		for _, s := range slots {
			if s.txn != tx.Txn {
				continue
			}
			at := tx.find(l.id, l.hash)
			if at < 0 || tx.held[at].lock != l || tx.held[at].mode != s.mode || tx.held[at].slot != int32(s.i)+1 {
				return fmt.Errorf("%v: slot %d holder txn %d (%v) has no matching held entry (at %d)", l.id, s.i, tx.tid, s.mode, at)
			}
		}
	}
	return nil
}

// grantableAgrees holds grantable to the holder walk for txn holding cur
// by name. A busy transaction's slot claim can land, or back out from
// the gate, between the two reads of the slots, so a disagreement
// counts only if it repeats over a slot view that held still.
func grantableAgrees(l *dbLock, slots []slotHold, txn *Txn, cur, mode Mode) error {
	view := slots
	for try := 0; ; try++ {
		got := grantable(l, txn, cur, mode)
		if got == holderWalkGrantable(l, view, txn, mode) {
			return nil
		}
		after := viewSlots(l)
		if slices.Equal(after, view) && try >= 3 {
			return fmt.Errorf("%v: grantable(txn %d holding %v, %v) = %v, holder walk disagrees (counts %v holders %v slots %v)",
				l.id, txn.tid, cur, mode, got, l.counts, l.holders, view)
		}
		view = after
	}
}

// checkLockTable holds the whole lock table, and every idle
// transaction's view of it, to their invariants.
func checkLockTable(lm *lockManager, txns []*oracleTxn) error {
	for si, st := range lm.stripes {
		err := func() error {
			st.latch.Lock()
			defer st.latch.Unlock()
			live := 0
			for hash, first := range st.locks {
				for l := first; l != nil; l = l.next {
					live++
					if l.hash != hash || hashID(l.id) != hash || lm.stripeFor(hash) != st {
						return fmt.Errorf("stripe %d: head %v filed under hash %x, carries %x", si, l.id, hash, l.hash)
					}
					if err := checkHead(l, txns); err != nil {
						return err
					}
				}
			}
			if live != st.live {
				return fmt.Errorf("stripe %d: live = %d, %d heads linked", si, st.live, live)
			}
			nodes := 0
			for l := range st.eachNode() {
				nodes++
				if l.in == nil || l.id.Level == LevelRecord || hashID(l.id) != l.hash || lm.stripeFor(l.hash) != st || st.nodeOf(l.id, l.hash) != l {
					return fmt.Errorf("stripe %d: node %v misfiled (hash %x)", si, l.id, l.hash)
				}
				if err := checkHead(l, txns); err != nil {
					return err
				}
			}
			if nodes != st.nnodes {
				return fmt.Errorf("stripe %d: nnodes = %d, %d nodes linked", si, st.nnodes, nodes)
			}
			for l := st.free; l != nil; l = l.next {
				if len(l.holders) != 0 || len(l.waiters) != 0 || l.id != (ResourceID{}) {
					return fmt.Errorf("stripe %d: free head not empty: %+v", si, l)
				}
				for _, h := range l.holders[:cap(l.holders)] {
					if h != (holder{}) {
						return fmt.Errorf("stripe %d: free head still references a holder: %+v", si, h)
					}
				}
				for _, w := range l.waiters[:cap(l.waiters)] {
					if w != nil {
						return fmt.Errorf("stripe %d: free head still references a waiter", si)
					}
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	// Transaction → table: every held entry points at a linked head that
	// names the same resource and lists the transaction in that mode.
	for _, tx := range txns {
		if tx.busy {
			continue
		}
		recs := map[ResourceID]int32{}
		for _, e := range tx.held {
			if e.id.Level == LevelRecord {
				recs[PartitionID(e.id.Table, e.id.Partition)]++
			}
			st := lm.stripeFor(e.hash)
			st.latch.Lock()
			linked := e.id.Level != LevelRecord && st.nodeOf(e.id, e.hash) == e.lock
			for l := st.locks[e.hash]; l != nil; l = l.next {
				linked = linked || l == e.lock
			}
			var mode Mode
			switch {
			case !linked:
			case e.slot != 0:
				if t, m := e.lock.in.slots[e.slot-1].load(); t == tx.Txn {
					mode = m
				}
			default:
				if i := e.lock.holderOf(tx.Txn); i >= 0 {
					mode = e.lock.holders[i].mode
				}
			}
			ok := linked && e.hash == hashID(e.id) && e.lock.id == e.id && mode == e.mode
			st.latch.Unlock()
			if !ok {
				return fmt.Errorf("txn %d: held entry %v (%v) does not match a live head (linked=%v)", tx.tid, e.id, e.mode, linked)
			}
		}
		for _, e := range tx.held {
			// recs is what lockRecord counted; acquires made around it
			// (tx.rawRec) are record entries it never saw.
			if e.id.Level == LevelPartition && (e.recs > recs[e.id] || !tx.rawRec && e.recs != recs[e.id]) {
				return fmt.Errorf("txn %d: %v counts %d records beneath it, held lists %d", tx.tid, e.id, e.recs, recs[e.id])
			}
		}
		if tx.index != nil && len(tx.held) <= heldScan {
			return fmt.Errorf("txn %d: index kept for %d held locks", tx.tid, len(tx.held))
		}
	}
	return nil
}

// lateIntent replays the race the fast path's second gate read exists
// for: an IS or IX request at a node that saw the gate down just before
// a coarse request raised it, so its slot claim (or upgrade) lands only
// now. It must back out, then go through acquire like any request that
// finds the gate up.
func lateIntent(lm *lockManager, txn *Txn, id ResourceID, mode Mode) error {
	hash := hashID(id)
	switch at := txn.find(id, hash); {
	case at < 0:
		if l := lm.stripeFor(hash).nodeOf(id, hash); l != nil {
			if _, ok := lm.enterSlot(txn, l, id, hash, mode); ok {
				return nil
			}
		}
	case txn.held[at].slot != 0 && txn.held[at].mode == IS && mode == IX:
		if lm.raiseSlot(txn, at) {
			return nil
		}
	}
	return lm.acquire(txn, id, mode)
}

// oracleTxn is one of the differential test's transactions.
type oracleTxn struct {
	*Txn
	cancel context.CancelFunc
	rawRec bool       // took a record lock around lockRecord: recs undercounts
	busy   bool       // an op is in flight on its goroutine
	done   chan error // the in-flight op's result
}

// lockTableOracle drives a seeded random sequence of lock operations.
type lockTableOracle struct {
	t    *testing.T
	db   *DB
	rng  *rand.Rand
	txns []*oracleTxn
	ids  []ResourceID // the table, its two partitions, their eight records
	recs []ResourceID // the records among ids

	slotWaits int // queued requests seen blocked by a slot holder
}

func (d *lockTableOracle) begin() *oracleTxn {
	ctx, cancel := context.WithCancel(context.Background())
	return &oracleTxn{Txn: d.db.BeginCtx(ctx), cancel: cancel}
}

// retire ends tx (strict 2PL's release-all) and puts a fresh, younger
// transaction in its place.
func (d *lockTableOracle) retire(tx *oracleTxn) {
	if d.rng.Intn(2) == 0 {
		tx.Abort()
	} else if err := tx.Commit(); err != nil && !errors.Is(err, ErrAborted) {
		d.t.Fatalf("commit: %v", err)
	}
	tx.cancel()
	for i := range d.txns {
		if d.txns[i] == tx {
			d.txns[i] = d.begin()
		}
	}
}

// start runs op on tx's own goroutine and returns once it has finished
// or some lock request has queued (tx.busy says which).
func (d *lockTableOracle) start(tx *oracleTxn, op func() error) {
	before := d.db.m.LockWaits.Load()
	tx.busy, tx.done = true, make(chan error, 1)
	go func() { tx.done <- op() }()
	for d.db.m.LockWaits.Load() == before {
		select {
		case err := <-tx.done:
			d.finish(tx, err)
			return
		default:
			goruntime.Gosched()
		}
	}
}

// finish takes an op's result: a transaction the lock manager refused
// is rolled back and replaced, as DB.Run would.
func (d *lockTableOracle) finish(tx *oracleTxn, err error) {
	tx.busy = false
	var ae *AbortError
	switch {
	case err == nil:
	case errors.As(err, &ae), errors.Is(err, context.Canceled):
		d.retire(tx)
	default:
		d.t.Fatalf("op failed outside the lock protocol: %v", err)
	}
}

// join waits out every in-flight op (each wait is bounded by the DB's
// WaitTimeout, so this cannot hang on a correct lock manager).
func (d *lockTableOracle) join() {
	for _, tx := range d.txns {
		if !tx.busy {
			continue
		}
		select {
		case err := <-tx.done:
			d.finish(tx, err)
		case <-time.After(10 * time.Second):
			d.t.Fatal("in-flight lock request never returned")
		}
	}
}

// randomOp picks tx's next lock request; nil means finish tx instead.
func (d *lockTableOracle) randomOp(tx *oracleTxn) func() error {
	lm := d.db.lm
	switch x := d.rng.Intn(100); {
	case x < 45: // a record access through the hierarchy (escalates at the threshold)
		id, write := d.recs[d.rng.Intn(len(d.recs))], d.rng.Intn(3) == 0
		return func() error { return tx.lockRecord(id.Table, id.Partition, id.Key, write) }
	case x < 72: // any mode on any node: plain acquires and every upgrade
		id, mode := d.ids[d.rng.Intn(len(d.ids))], IS+Mode(d.rng.Intn(5))
		tx.rawRec = tx.rawRec || id.Level == LevelRecord
		return func() error { return lm.acquire(tx.Txn, id, mode) }
	case x < 80: // an intention request whose gate read predates the gate going up
		id, mode := d.ids[d.rng.Intn(3)], IS+Mode(d.rng.Intn(2))
		return func() error { return lateIntent(lm, tx.Txn, id, mode) }
	case x < 90: // fold whatever is held under one partition
		write := d.rng.Intn(2) == 0
		for _, i := range d.rng.Perm(len(tx.held)) {
			if tx.held[i].id.Level == LevelPartition {
				return func() error { return tx.escalate(i, write) }
			}
		}
	}
	return nil
}

// blockers lists the idle transactions some queued request waits
// behind, by name or from a slot. It also tallies the waits on a slot
// holder, the path the oracle must not finish without.
func (d *lockTableOracle) blockers() []*oracleTxn {
	var out []*oracleTxn
	listed := map[*oracleTxn]bool{}
	for _, st := range d.db.lm.stripes {
		st.latch.Lock()
		heads := slices.Collect(st.eachNode())
		for _, first := range st.locks {
			for l := first; l != nil; l = l.next {
				heads = append(heads, l)
			}
		}
		for _, l := range heads {
			if len(l.waiters) == 0 {
				continue
			}
			slots := viewSlots(l)
			for _, w := range l.waiters {
				for _, tx := range d.txns {
					held := slotModeOf(slots, tx.Txn)
					if held != ModeNone && !compat[held][w.mode] {
						d.slotWaits++
					}
					if i := l.holderOf(tx.Txn); i >= 0 {
						held = l.holders[i].mode
					}
					if held != ModeNone && !tx.busy && !listed[tx] && !compat[held][w.mode] {
						out, listed[tx] = append(out, tx), true
					}
				}
			}
		}
		st.latch.Unlock()
	}
	return out
}

// TestLockTableMatchesHolderWalk is the lock head's differential test:
// a seeded random sequence of acquires, upgrades, release-alls,
// escalations and waits that end by grant, by cancellation and by
// timeout, against a real lockManager — and after every step the
// granted-group summary, the hash-keyed table, the free list and every
// transaction's held list must agree with a plain walk of the holders.
func TestLockTableMatchesHolderWalk(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("OLTP_ORACLE_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("OLTP_ORACLE_SEED: %v", err)
		}
	}
	t.Logf("seed %d (replay: OLTP_ORACLE_SEED=%d go test -run TestLockTableMatchesHolderWalk ./internal/oltp)", seed, seed)
	db := newTestDB(t, golc.Block, Options{EscalationThreshold: 3, WaitTimeout: 2 * time.Millisecond})
	d := &lockTableOracle{t: t, db: db, rng: rand.New(rand.NewSource(seed))}
	d.ids = []ResourceID{TableID("t"), PartitionID("t", 0), PartitionID("t", 1)}
	for part := 0; part < 2; part++ {
		for _, k := range keysInPartition(t, db, "t", part, 4) {
			d.recs = append(d.recs, RecordID("t", part, k))
		}
	}
	d.ids = append(d.ids, d.recs...)
	for n := 4 + d.rng.Intn(3); len(d.txns) < n; {
		d.txns = append(d.txns, d.begin())
	}
	check := func(step int, when string) {
		t.Helper()
		if err := checkLockTable(db.lm, d.txns); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, when, err)
		}
	}
	const steps = 20000
	for step := 0; step < steps; step++ {
		// Up to three requests in flight at once, so queues get deeper
		// than one and FIFO promotion is part of what is checked.
		for _, i := range d.rng.Perm(len(d.txns))[:1+d.rng.Intn(3)] {
			tx := d.txns[i]
			if tx.busy {
				continue
			}
			if op := d.randomOp(tx); op != nil {
				d.start(tx, op)
			} else {
				d.retire(tx)
			}
		}
		check(step, "requests queued")
		// End the waits one of three ways; whichever the dice pick, the
		// 2ms timeout is what bounds a request nothing else resolves.
		switch d.rng.Intn(3) {
		case 0: // grant: the holders in the way finish
			for _, tx := range d.blockers() {
				d.retire(tx)
			}
		case 1: // the callers walk away
			for _, tx := range d.txns {
				if tx.busy {
					tx.cancel()
				}
			}
		}
		d.join()
		check(step, "quiescent")
	}
	for _, tx := range d.txns {
		tx.Abort()
		tx.cancel()
	}
	check(steps, "drained")
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("seed %d: %d lock-table entries left after every transaction finished", seed, n)
	}
	m := db.Metrics()
	if m.LockWaits == 0 || m.TimeoutAborts == 0 || m.CtxCancels == 0 || m.WaitDieAborts == 0 || m.Escalations == 0 || d.slotWaits == 0 {
		t.Fatalf("seed %d: the sequence missed a path it exists to cover: %+v, %d waits on a slot holder", seed, m, d.slotWaits)
	}
	t.Logf("%d steps: %+v, %d waits on a slot holder", steps, m, d.slotWaits)
}

// TestHashCollisionChains forges what 64-bit FNV will not produce on
// demand — distinct ids with one hash — and checks both places that
// must tell them apart: the stripe's chain and Txn.find's index.
func TestHashCollisionChains(t *testing.T) {
	db := newTestDB(t, golc.Block, Options{})
	st := db.lm.stripes[0]
	const hash = 42
	ids := []ResourceID{RecordID("t", 0, "a"), RecordID("t", 0, "b"), RecordID("t", 0, "c")}
	st.latch.Lock()
	var heads []*dbLock
	for _, id := range ids {
		heads = append(heads, st.head(id, hash))
	}
	if st.live != 3 || len(st.locks) != 1 || heads[0] == heads[1] || heads[1] == heads[2] {
		t.Fatalf("three colliding ids: live=%d buckets=%d heads=%p", st.live, len(st.locks), heads)
	}
	for i, id := range ids {
		if st.head(id, hash) != heads[i] {
			t.Fatalf("lookup of %v did not find its own head in the chain", id)
		}
	}
	st.retire(heads[1]) // neither first nor last linked: mid-chain
	if st.live != 2 || st.head(ids[0], hash) != heads[0] || st.head(ids[2], hash) != heads[2] {
		t.Fatalf("mid-chain retire lost a neighbour (live=%d)", st.live)
	}
	heads[1].counts[S], heads[1].hash = 7, 99 // what a reset must not let through
	if l := st.head(ids[1], hash); l != heads[1] || l.id != ids[1] || l.hash != hash || l.counts != [6]int32{} {
		t.Fatalf("recycled head not reset: %+v", l)
	}
	for _, l := range heads {
		st.retire(l)
	}
	if st.live != 0 || len(st.locks) != 0 {
		t.Fatalf("after retiring all: live=%d buckets=%d", st.live, len(st.locks))
	}
	st.latch.Unlock()

	txn := db.Begin()
	n := heldScan + 9
	for i := 0; i < n; i++ { // ids pair up on a hash: i and i^1 collide
		txn.noteHeld(-1, RecordID("t", 0, strconv.Itoa(i)), uint64(i/2), S, nil)
	}
	if txn.index == nil {
		t.Fatalf("no index after %d held locks", n)
	}
	for i := 0; i < n; i++ {
		if at := txn.find(RecordID("t", 0, strconv.Itoa(i)), uint64(i/2)); at != i {
			t.Fatalf("find(id %d) = %d", i, at)
		}
	}
	if at := txn.find(RecordID("t", 0, "absent"), 3); at != -1 {
		t.Fatalf("find(absent id on a used hash) = %d", at)
	}
	if at := txn.find(RecordID("t", 0, "absent"), 1<<40); at != -1 {
		t.Fatalf("find(absent id, unused hash) = %d", at)
	}
}

// TestTxnAllocBudget pins the heap allocations of the paths the lock
// table rebuild emptied. It is the repeatable count beside the
// throughput numbers: at the parent commit every TATP transaction cost
// 27 (three maps per Txn, a dbLock and a holders map per lock).
func TestTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := newTestDB(t, golc.LoadControlled, Options{})
	w := NewTATP(db, TATPConfig{}) // lcperf's population: ids past the runtime's preboxed small integers
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		kind   TxnKind
		budget float64
	}{
		{GetSubscriberData, 8}, // the Txn, the closure, two key Sprintfs
		{UpdateLocation, 16},   // + the profile, the write-set, the batch, kv's index postings
	} {
		run := func() {
			if err := w.Run(c.kind, rng); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			run() // warm the stripes' free lists
		}
		if got := testing.AllocsPerRun(500, run); got > c.budget {
			t.Errorf("%v: %.0f allocations per transaction, budget %.0f", c.kind, got, c.budget)
		} else {
			t.Logf("%v: %.0f allocations per transaction (budget %.0f)", c.kind, got, c.budget)
		}
	}

	// A record lock on a stripe that has seen one before: nothing at all.
	txn, id := db.Begin(), RecordID(subTable, 0, subKey(1))
	lockUnlock := func() {
		if err := db.lm.acquire(txn, id, X); err != nil {
			t.Fatal(err)
		}
		db.lm.releaseAll(txn)
	}
	lockUnlock()
	if got := testing.AllocsPerRun(1000, lockUnlock); got != 0 {
		t.Errorf("uncontended acquire+release: %.0f allocations, want 0", got)
	}

	// kv's half of a single-shard commit: grouping a batch by shard
	// allocates nothing (the value is unchanged, so no index posting).
	sk := storageKey(subTable, subKey(1))
	v, _ := db.Store().Get(sk)
	batch := []kv.Write{{Key: sk, Value: v}}
	if got := testing.AllocsPerRun(1000, func() { db.Store().ApplyBatch(batch) }); got != 0 {
		t.Errorf("single-shard ApplyBatch: %.0f allocations, want 0", got)
	}
}

// TestBigTxnLockTable: one transaction holding thousands of record
// locks (escalation off) must stay linear — past heldScan its held list
// is indexed — and must hand every lock-table entry back.
func TestBigTxnLockTable(t *testing.T) {
	const records, parts = 4096, 16
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
	rt.Start()
	t.Cleanup(rt.Stop)
	store := kv.New(kv.Options{Shards: parts, Policy: golc.Block, Runtime: rt})
	t.Cleanup(store.Close)
	db := New(store, Options{Runtime: rt, EscalationThreshold: -1})
	t.Cleanup(db.Close)

	start := time.Now()
	txn := db.Begin()
	for i := 0; i < records; i++ {
		if err := txn.Write("big", fmt.Sprintf("k%05d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	locked := time.Since(start)
	// Every record, every partition (4096 keys leave none of 16 empty),
	// the table.
	if n := db.LockEntries(); n != records+parts+1 {
		t.Fatalf("lock-table entries at peak = %d, want %d", n, records+parts+1)
	}
	if len(txn.held) != records+parts+1 || len(txn.index) != len(txn.held) {
		t.Fatalf("held %d entries, index %d, want %d each", len(txn.held), len(txn.index), records+parts+1)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.LockEntries(); n != 0 {
		t.Fatalf("lock table not empty after commit: %d", n)
	}
	if n := store.Len(); n != records {
		t.Fatalf("store holds %d records, want %d", n, records)
	}
	t.Logf("%d record locks in %v, commit and release in %v", records, locked, time.Since(start)-locked)
}
