package oltp

import (
	"context"
	"fmt"
	"iter"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
)

// Mode is a hierarchical lock mode. The zero value ModeNone means "no
// lock held" and never appears in a lock's holder table.
type Mode int

const (
	ModeNone Mode = iota
	IS            // intention shared: S somewhere below
	IX            // intention exclusive: X somewhere below
	S             // shared: read this node and everything below
	SIX           // S + IX: read everything below, write some of it
	X             // exclusive: read/write this node and everything below
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compat is the standard hierarchical compatibility matrix (Gray's
// granularity-of-locks matrix). compat[held][want] reports whether a
// lock held in mode `held` by one transaction admits another
// transaction in mode `want`. ModeNone rows/columns are all-true: no
// hold constrains nothing.
var compat = [6][6]bool{
	ModeNone: {ModeNone: true, IS: true, IX: true, S: true, SIX: true, X: true},
	IS:       {ModeNone: true, IS: true, IX: true, S: true, SIX: true},
	IX:       {ModeNone: true, IS: true, IX: true},
	S:        {ModeNone: true, IS: true, S: true},
	SIX:      {ModeNone: true, IS: true},
	X:        {ModeNone: true},
}

// lub is the least upper bound of two modes in the mode lattice —
// the weakest single mode that grants both: a transaction re-locking
// a resource holds lub(held, wanted). The interesting join is
// lub(S, IX) = SIX; everything else follows the IS < {IX, S} < SIX < X
// order.
var lub = [6][6]Mode{
	ModeNone: {ModeNone: ModeNone, IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IS:       {ModeNone: IS, IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IX:       {ModeNone: IX, IS: IX, IX: IX, S: SIX, SIX: SIX, X: X},
	S:        {ModeNone: S, IS: S, IX: SIX, S: S, SIX: SIX, X: X},
	SIX:      {ModeNone: SIX, IS: SIX, IX: SIX, S: SIX, SIX: SIX, X: X},
	X:        {ModeNone: X, IS: X, IX: X, S: X, SIX: X, X: X},
}

// covers reports whether holding `held` already grants `want`.
func covers(held, want Mode) bool { return lub[held][want] == held }

// Level locates a resource in the hierarchy: a partition, or a record
// beneath one.
type Level int

const (
	LevelPartition Level = iota
	LevelRecord
)

func (l Level) String() string {
	switch l {
	case LevelPartition:
		return "partition"
	case LevelRecord:
		return "record"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ResourceID names one lockable node in the hierarchy. Key is empty at
// partition level. Record IDs carry their partition so a lock dump
// reads hierarchically.
type ResourceID struct {
	Level     Level
	Table     string
	Partition int
	Key       string
}

func (id ResourceID) String() string {
	if id.Level == LevelPartition {
		return fmt.Sprintf("partition(%s/%d)", id.Table, id.Partition)
	}
	return fmt.Sprintf("record(%s/%d/%s)", id.Table, id.Partition, id.Key)
}

// PartitionID names a partition node (partition ids are the kv store's
// shard indexes).
func PartitionID(table string, part int) ResourceID {
	return ResourceID{Level: LevelPartition, Table: table, Partition: part}
}

// RecordID names a record node.
func RecordID(table string, part int, key string) ResourceID {
	return ResourceID{Level: LevelRecord, Table: table, Partition: part, Key: key}
}

// classOf names a resource's blame class: its level and table, without
// the per-record identity — blame aggregates classes of conflict, not
// individual keys.
func classOf(id ResourceID) string {
	if id.Level == LevelPartition {
		return "partition(" + id.Table + ")"
	}
	return "record(" + id.Table + ")"
}

// waiter is one blocked logical lock request. ready is closed exactly
// once, by the grant path after setting granted under the stripe
// latch. Only the caller's context or the lock timeout can end the
// wait otherwise, and the waiter's OWN goroutine — the only place that
// ever dequeues it — re-checks granted under the stripe latch before
// treating that wake as an abort, so a grant racing it always wins and
// no bookkeeping happens off-goroutine.
type waiter struct {
	txn     *Txn
	cur     Mode // what txn holds by name on the lock while it waits (an upgrade), else ModeNone
	mode    Mode // the full target mode (lub of held and wanted)
	ready   chan struct{}
	granted bool
}

// nodeSlots is how many intention holds a partition node keeps off the
// latch; past it IS and IX requests take the latched head. The value
// was sized when the hierarchy still had a table level, whose one or
// two nodes every worker of lcperf's 8x workloads (64 on the 2-CPU host
// measured) held for its whole transaction: there 16 slots sent 7.5%
// (tatp_8x) and 15% (write_durable_8x) of intention requests to the
// head and kept all of 64 slots' throughput; 8 lost some. A partition
// node sees fewer holders than those table nodes did; the value has not
// been re-tuned for it.
const nodeSlots = 16

// nodeSweepMin is how many nodes a stripe links before the next link
// first sweeps out the idle ones (see lmStripe.node).
const nodeSweepMin = 64

// slot is one intention hold taken without the latch. Only the holding
// transaction writes it: txn is claimed by CAS before mode is stored,
// and mode is cleared before txn is, so a reader that finds a txn with
// ModeNone has caught a claim or a release in flight — not a holder.
type slot struct {
	txn  atomic.Pointer[Txn]
	mode atomic.Int32
}

// load returns the slot's holder and mode, or nil.
func (s *slot) load() (*Txn, Mode) {
	t := s.txn.Load()
	if t == nil {
		return nil, ModeNone
	}
	if m := Mode(s.mode.Load()); m != ModeNone {
		return t, m
	}
	return nil, ModeNone
}

func (s *slot) clear() {
	s.mode.Store(int32(ModeNone))
	s.txn.Store(nil)
}

// intents is the latch-free half of a partition node: IS and
// IX holds by identity, one slot each, and the gate that shuts them out.
// The gate is raised, under the stripe latch, by an S, SIX or X request
// before it reads the slots; it comes down, under the latch, once the
// node has no such holder or waiter. Every slot write is followed by a
// gate read, and every gate raise by slot reads, so with Go's
// sequentially consistent atomics one side always sees the other: a
// claim that lands while the gate is up backs out to the latched head,
// and one that landed before it is seen, by identity, by the wait-die
// test and the grant test alike.
//
// DB.Run recycles its Txn records, so a slot pointer can outlive the
// transaction it named. Only mustDie reads through one (the holder's
// tid); every other reader compares it. mustDie runs under the stripe
// latch, with the gate raised before the slots were read. A holder whose
// pointer it read clears its slot after that read and then finds the
// gate up, so it must regrant — on that same latch. Its Run therefore
// cannot return and recycle the record while the reader holds the latch;
// and a holder that cleared first, gate down, was not seen at all.
type intents struct {
	gate  atomic.Bool
	slots [nodeSlots]slot
}

// holders yields every slot holder and its mode; a nil intents (a
// record head) has none.
func (in *intents) holders() iter.Seq2[*Txn, Mode] {
	return func(yield func(*Txn, Mode) bool) {
		if in == nil {
			return
		}
		for i := range in.slots {
			if t, m := in.slots[i].load(); t != nil && !yield(t, m) {
				return
			}
		}
	}
}

// occupied reports whether any slot is claimed, settled or not.
func (in *intents) occupied() bool {
	for i := range in.slots {
		if in.slots[i].txn.Load() != nil {
			return true
		}
	}
	return false
}

// claim puts txn into a free slot in mode and returns its index, or -1
// if every slot is taken. Probing starts at a slot picked by tid, so
// concurrent transactions mostly CAS different words.
func (in *intents) claim(txn *Txn, mode Mode) int {
	start := int(txn.tid % nodeSlots)
	for k := range nodeSlots {
		i := (start + k) % nodeSlots
		s := &in.slots[i]
		if s.txn.Load() == nil && s.txn.CompareAndSwap(nil, txn) {
			s.mode.Store(int32(mode))
			return i
		}
	}
	return -1
}

// holder is one member of a lock's granted group.
type holder struct {
	txn  *Txn
	mode Mode
}

// dbLock is one lock head: the resource it names, the granted group
// and a FIFO wait queue. Guarded by its stripe's latch.
//
// The granted group is kept twice. counts is its summary — holders per
// mode — and is all the grant test reads, so deciding whether a request
// fits costs the same with one holder or sixty. holders lists who they
// are, in no particular order (removal swaps the last entry in); it is
// walked only where identities matter: the wait-die age test, the
// blame label, and a transaction finding its own entry to upgrade or
// drop it.
//
// A partition head is a node: it also carries intents, the
// IS/IX holds taken without the latch. Those are outside counts and
// holders, and only S, SIX and X conflict with them, so only those
// requests read them.
type dbLock struct {
	id      ResourceID
	hash    uint64  // hashID(id): picks the stripe and the bucket
	next    *dbLock // record heads: the bucket's chain while live, the free list once retired
	counts  [6]int32
	holders []holder
	waiters []*waiter
	in      *intents // nodes only
}

// holderOf returns the index of txn's entry in the granted group, or -1.
func (l *dbLock) holderOf(txn *Txn) int {
	for i := range l.holders {
		if l.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// hold records that txn, holding cur (ModeNone: not a holder yet), now
// holds mode.
func (l *dbLock) hold(txn *Txn, cur, mode Mode) {
	if cur == ModeNone {
		l.holders = append(l.holders, holder{txn, mode})
	} else {
		l.holders[l.holderOf(txn)].mode = mode
		l.counts[cur]--
	}
	l.counts[mode]++
}

// drop removes txn from the granted group. The vacated slot is zeroed:
// a head outlives its holders (free list), and must not pin them.
func (l *dbLock) drop(txn *Txn) {
	i, last := l.holderOf(txn), len(l.holders)-1
	l.counts[l.holders[i].mode]--
	l.holders[i] = l.holders[last]
	l.holders[last] = holder{}
	l.holders = l.holders[:last]
}

// lowerGate reopens a node's fast path once no S, SIX or X hold or
// request is left on it. Caller holds the latch.
func (l *dbLock) lowerGate() {
	if l.in == nil || !l.in.gate.Load() || l.counts[S]+l.counts[SIX]+l.counts[X] != 0 {
		return
	}
	for _, w := range l.waiters {
		if w.mode > IX {
			return
		}
	}
	l.in.gate.Store(false)
}

// dequeue removes the waiter at position i, keeping queue order. It
// copies down rather than re-slicing so the backing array neither
// creeps forward nor keeps the departed waiter reachable.
func (l *dbLock) dequeue(i int) {
	last := len(l.waiters) - 1
	copy(l.waiters[i:], l.waiters[i+1:])
	l.waiters[last] = nil
	l.waiters = l.waiters[:last]
}

// lmStripe is one slice of the lock table. The latch is the physical
// contention point the paper cares about: a policy-parameterized
// golc.Mutex registered with the shared runtime, so lock-manager
// latching is governed exactly like every data latch — same runtime,
// same swappable contention policy.
//
// Record heads sit in buckets, a power-of-two array indexed by the id's
// hash — the word stripeFor already computed — so a lookup never hashes
// the id's strings a second time; the heads of one bucket chain through
// dbLock.next. The array doubles once the stripe links more heads than
// it has buckets, and never shrinks. A head whose group and queue have
// emptied is unlinked and kept on free, so a stripe that has seen its
// peak allocates nothing per acquire.
//
// Partition nodes live apart, in nodes: the intention fast path finds
// them without the latch, so their table is never changed once published
// and a node is never recycled. A fixed schema makes them few — its tables
// times the partitions — but table names are outside input (lcserve's
// /txn takes them from the request body), so an idle node is dropped by
// the sweep in node rather than kept for the DB's lifetime.
type lmStripe struct {
	latch   *golc.Mutex
	buckets []*dbLock // record heads, chained through next
	free    *dbLock
	live    int // linked record heads
	nodes   atomic.Pointer[nodeTable]
	nnodes  int // nodes linked
	sweepAt int // nnodes at which the next link first sweeps
}

// recordBuckets is how many buckets a stripe's record table starts
// with.
const recordBuckets = 64

// bucketOf picks one of n buckets (a power of two) for an id hash: the
// top log2(n) bits of its Fibonacci product. Not the low bits: stripeFor
// takes the product's low five, which an odd multiplier derives from the
// hash's low five alone, so every head of a stripe shares those bits and
// a masked index would reach 1/32 of the buckets.
func bucketOf(hash uint64, n int) int {
	return int((hash * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(n))))
}

// nodeTable is a stripe's nodes, bucketed by bucketOf. It is immutable
// once published: node builds a new one for every link.
type nodeTable [][]*dbLock

// nodeOf returns id's node, or nil if none is linked. No latch needed.
func (st *lmStripe) nodeOf(id ResourceID, hash uint64) *dbLock {
	if nt := st.nodes.Load(); nt != nil {
		for _, l := range (*nt)[bucketOf(hash, len(*nt))] {
			if l.hash == hash && l.id == id {
				return l
			}
		}
	}
	return nil
}

// eachNode yields the stripe's linked nodes.
func (st *lmStripe) eachNode() iter.Seq[*dbLock] {
	return func(yield func(*dbLock) bool) {
		if nt := st.nodes.Load(); nt != nil {
			for _, ls := range *nt {
				for _, l := range ls {
					if !yield(l) {
						return
					}
				}
			}
		}
	}
}

// node returns id's node, linking a fresh one if there is none. Caller
// holds the latch. Every link builds a new table, with at least twice as
// many buckets as nodes; once the stripe has sweepAt nodes, the new
// table leaves out the idle ones, so it stays within twice its busy size
// however many tables clients name.
func (st *lmStripe) node(id ResourceID, hash uint64) *dbLock {
	if l := st.nodeOf(id, hash); l != nil {
		return l
	}
	sweep := st.nnodes >= st.sweepAt
	keep := make([]*dbLock, 0, st.nnodes+1)
	for n := range st.eachNode() {
		if !sweep || !n.retireNode() {
			keep = append(keep, n)
		}
	}
	l := &dbLock{id: id, hash: hash, in: new(intents)}
	keep = append(keep, l)
	nt := make(nodeTable, max(4, 1<<bits.Len(uint(2*len(keep)-1))))
	for _, n := range keep {
		b := bucketOf(n.hash, len(nt))
		nt[b] = append(nt[b], n)
	}
	st.nnodes = len(keep)
	if sweep {
		st.sweepAt = max(nodeSweepMin, 2*st.nnodes)
	}
	st.nodes.Store(&nt)
	return l
}

// retireNode reports whether node l is idle and, if it is, shuts it for
// good: the gate goes up before the slots are read, so a claim racing
// the sweep backs out to the latched path and finds l's successor.
// Caller holds the latch.
func (l *dbLock) retireNode() bool {
	if len(l.holders) != 0 || len(l.waiters) != 0 {
		return false
	}
	l.in.gate.Store(true)
	if l.in.occupied() {
		l.in.gate.Store(false)
		return false
	}
	return true
}

// head returns id's lock head, linking a fresh one if there is none.
// Caller holds the latch.
func (st *lmStripe) head(id ResourceID, hash uint64) *dbLock {
	if id.Level != LevelRecord {
		return st.node(id, hash)
	}
	b := &st.buckets[bucketOf(hash, len(st.buckets))]
	for l := *b; l != nil; l = l.next {
		if l.hash == hash && l.id == id {
			return l
		}
	}
	l := st.free
	if l != nil {
		st.free = l.next
		// Everything but the two backing arrays starts over (field by
		// field: a whole-struct store pays a bulk write barrier).
		l.counts, l.holders, l.waiters = [6]int32{}, l.holders[:0], l.waiters[:0]
	} else {
		l = new(dbLock)
	}
	l.id, l.hash, l.next = id, hash, *b
	*b = l
	if st.live++; st.live > len(st.buckets) {
		st.grow()
	}
	return l
}

// grow doubles the record buckets and relinks every head. Caller holds
// the latch.
func (st *lmStripe) grow() {
	old := st.buckets
	st.buckets = make([]*dbLock, 2*len(old))
	for _, l := range old {
		for l != nil {
			next, b := l.next, &st.buckets[bucketOf(l.hash, len(st.buckets))]
			l.next, *b = *b, l
			l = next
		}
	}
}

// retire unlinks record head l if nothing holds or awaits it and keeps
// it for reuse. Caller holds the latch. A head some transaction still
// holds is never retired, which is what lets Txn.held keep a pointer to
// it.
func (st *lmStripe) retire(l *dbLock) {
	if l.in != nil || len(l.holders) != 0 || len(l.waiters) != 0 {
		return
	}
	p := &st.buckets[bucketOf(l.hash, len(st.buckets))]
	for *p != l {
		p = &(*p).next
	}
	*p = l.next
	st.live--
	l.id = ResourceID{} // a parked head must not pin the id's strings
	l.next, st.free = st.free, l
}

// settle follows any change to l's granted group or queue: the queue's
// compatible prefix is granted, a node's gate comes down once nothing
// coarse is left, and an emptied record head is retired. Caller holds
// the latch.
func (st *lmStripe) settle(l *dbLock) {
	grant(l)
	l.lowerGate()
	st.retire(l)
}

// lockStripes is how many latched stripes the lock table is split into.
// It is a constant, not an option, because every DB ever built has used
// this count: no caller, test or benchmark needs another.
const lockStripes = 32

// lockManager is the DB's logical lock table. Wait-die (mustDie) makes
// every die-vs-wait decision.
type lockManager struct {
	stripes  []*lmStripe
	timeout  time.Duration
	m        *Metrics
	rec      *obs.Recorder  // flight recorder for txn lifecycle events
	lockWait *obs.Histogram // logical lock wait durations (the DB's)
}

func newLockManager(pol golc.ContentionPolicy, o Options, m *Metrics, rec *obs.Recorder, lockWait *obs.Histogram) *lockManager {
	lm := &lockManager{timeout: o.WaitTimeout, m: m, rec: rec, lockWait: lockWait}
	for i := range lockStripes {
		lm.stripes = append(lm.stripes, &lmStripe{
			latch: golc.New(fmt.Sprintf("oltp/lm-%03d", i),
				golc.WithPolicy(pol), golc.WithRuntime(latchRuntime(o))),
			buckets: make([]*dbLock, recordBuckets),
		})
	}
	return lm
}

// latchRuntime resolves the runtime the stripes register with, without
// touching the process-wide Default when a private one was given.
func latchRuntime(o Options) *lcrt.Runtime {
	if o.Runtime != nil {
		return o.Runtime
	}
	return lcrt.Default()
}

func (lm *lockManager) close() {
	for _, st := range lm.stripes {
		st.latch.Close()
	}
}

// hashID is FNV-1a over the full id. It is computed once per acquire
// and then stands in for the id everywhere a hash is needed: the stripe
// choice, the stripe's bucket, and the first word Txn.find compares.
func hashID(id ResourceID) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(id.Table)
	h ^= uint64(id.Level)<<8 | uint64(uint32(id.Partition))
	h *= 1099511628211
	mix(id.Key)
	return h
}

// stripeFor routes an id hash to its stripe (Fibonacci-spread like the
// kv shard map).
func (lm *lockManager) stripeFor(hash uint64) *lmStripe {
	return lm.stripes[(hash*0x9e3779b97f4a7c15)%uint64(len(lm.stripes))]
}

// lock takes a stripe latch, counting physical contention: a TryLock
// miss means another goroutine was in the lock table right now.
func (lm *lockManager) lock(st *lmStripe) {
	//lint:allow lockpair acquire helper by contract: every caller releases st.latch
	if st.latch.TryLock() {
		return
	}
	lm.m.LatchMisses.Add(1)
	st.latch.Lock() //lint:allow lockpair acquire helper by contract: every caller releases st.latch
}

// grantable reports whether txn, holding cur by name on l (ModeNone:
// nothing), may hold mode beside the rest of the granted group. Its own
// hold never conflicts with itself, so one holder in cur is left out:
// upgrades pass. Six steps whatever the group's size — plus, for a
// coarse mode at a node, a look at the slots, whose IS and IX holds
// every intention mode admits.
func grantable(l *dbLock, txn *Txn, cur, mode Mode) bool {
	for m := IS; m <= X; m++ {
		n := l.counts[m]
		if m == cur {
			n--
		}
		if n > 0 && !compat[m][mode] {
			return false
		}
	}
	if mode > IX {
		for t, m := range l.in.holders() {
			if t != txn && !compat[m][mode] {
				return false
			}
		}
	}
	return true
}

// conflictsQueue reports whether any queued waiter of another
// transaction conflicts with mode. An immediate grant must not jump
// such a waiter (FIFO fairness keeps writers from starving), and
// wait-die must age-check against them (see acquire) — a waiter the
// requester would queue behind is a wait edge exactly like a holder.
func conflictsQueue(l *dbLock, txn *Txn, mode Mode) bool {
	for _, w := range l.waiters {
		if w.txn != txn && !compat[w.mode][mode] {
			return true
		}
	}
	return false
}

// firstBlocker names what the first transaction a conflicted request
// waits behind holds: the mode of a conflicting holder, named or in a
// slot, else "queued" — with no holder in the way, the conflict is a
// queued waiter FIFO fairness puts it behind. It is the hold side of
// the logical blame label, so it runs under the stripe latch and only
// when blame is sampled.
func firstBlocker(l *dbLock, txn *Txn, goal Mode) string {
	for _, h := range l.holders {
		if h.txn != txn && !compat[h.mode][goal] {
			return h.mode.String()
		}
	}
	for t, m := range l.in.holders() {
		if t != txn && !compat[m][goal] {
			return m.String()
		}
	}
	return "queued"
}

// acquire takes (or upgrades to) mode on id for txn, blocking if
// incompatible. Conflicts are resolved by wait-die: a requester younger
// than any of its blockers aborts on the spot with an *AbortError and
// the txn is marked for Run's retry (every wait edge then points
// old→young, so no cycle can form). Returns nil once the lock is held,
// with txn.held updated.
func (lm *lockManager) acquire(txn *Txn, id ResourceID, want Mode) error {
	_, err := lm.acquireAt(txn, id, want)
	return err
}

// intent is the latch-free path for IS or IX at a partition node. It
// reads the gate first and, if it is down, claims a slot (or raises the
// transaction's own slot from IS to IX). It reports false — the request
// takes the latched path — when the gate is up, the slots are full, the
// node does not exist yet or the hold being upgraded is a named one. Of
// these only the first two are fallbacks, and only they are counted.
func (lm *lockManager) intent(txn *Txn, st *lmStripe, at int, id ResourceID, hash uint64, goal Mode) (int, bool) {
	var l *dbLock
	if at >= 0 {
		if txn.held[at].slot == 0 {
			return at, false
		}
		l = txn.held[at].lock
	} else if l = st.nodeOf(id, hash); l == nil {
		return at, false
	}
	if l.in.gate.Load() {
		lm.m.IntentGateUp.Add(1)
		return at, false
	}
	if at >= 0 {
		return at, lm.raiseSlot(txn, at)
	}
	return lm.enterSlot(txn, l, goal)
}

// enterSlot claims a slot at node l for txn in mode, then reads the gate
// again: if it came up since the caller saw it down, the claim is given
// back — a release that finds the gate up — and the request must go to
// the latched path. Returns the hold's position in txn.held.
func (lm *lockManager) enterSlot(txn *Txn, l *dbLock, mode Mode) (int, bool) {
	i := l.in.claim(txn, mode)
	if i < 0 {
		lm.m.IntentSlotsFull.Add(1)
		return -1, false
	}
	if l.in.gate.Load() {
		l.in.slots[i].clear()
		lm.regrant(l)
		lm.m.IntentGateUp.Add(1)
		return -1, false
	}
	at := txn.noteHeld(-1, l.hash, mode, l)
	txn.held[at].slot = int32(i) + 1
	return at, true
}

// raiseSlot moves txn's slot hold at position at from IS to IX, then
// reads the gate again: if it came up meanwhile, the hold goes back to
// IS — a downgrade that finds the gate up — and the request must go to
// the latched path.
func (lm *lockManager) raiseSlot(txn *Txn, at int) bool {
	e := &txn.held[at]
	s := &e.lock.in.slots[e.slot-1]
	s.mode.Store(int32(IX))
	if e.lock.in.gate.Load() {
		s.mode.Store(int32(IS))
		lm.regrant(e.lock)
		lm.m.IntentGateUp.Add(1)
		return false
	}
	e.mode = IX
	return true
}

// regrant follows a slot cleared or lowered while node l's gate is up:
// a coarse request may be queued on it, and the last slot in its way is
// what grants it.
func (lm *lockManager) regrant(l *dbLock) {
	st := lm.stripeFor(l.hash)
	lm.lock(st)
	grant(l)
	st.latch.Unlock()
}

// acquireAt is acquire, also returning where in txn.held the lock's
// entry sits. The transaction's own record answers two questions
// without the table: what it already holds (a request that covers
// returns before any latch is taken) and, for an upgrade, which head (a
// held head is never retired — see lmStripe.retire).
func (lm *lockManager) acquireAt(txn *Txn, id ResourceID, want Mode) (int, error) {
	hash := hashID(id)
	at := txn.find(id, hash)
	cur := ModeNone
	if at >= 0 {
		if cur = txn.held[at].mode; covers(cur, want) {
			return at, nil
		}
	}
	goal := lub[cur][want]
	st := lm.stripeFor(hash)
	if goal <= IX && id.Level != LevelRecord {
		if i, done := lm.intent(txn, st, at, id, hash, goal); done {
			return i, nil
		}
	}
	lm.lock(st)
	var l *dbLock
	if at >= 0 {
		e := &txn.held[at]
		l = e.lock
		if e.slot != 0 {
			// The request needs the latch, so the hold it upgrades joins
			// the named group first: from here on cur is a named hold, as
			// the grant test, the queue and release expect. Nobody else's
			// conflicts change.
			l.hold(txn, ModeNone, cur)
			l.in.slots[e.slot-1].clear()
			e.slot = 0
		}
	} else {
		l = st.head(id, hash)
	}
	if goal > IX && l.in != nil && !l.in.gate.Load() {
		l.in.gate.Store(true) // shut the fast path before grantable reads the slots
	}
	if grantable(l, txn, cur, goal) && !conflictsQueue(l, txn, goal) {
		l.hold(txn, cur, goal)
		st.latch.Unlock()
		return txn.noteHeld(at, hash, goal, l), nil
	}
	// Conflict: wait-die decides between dying now and waiting.
	// (A conflicted head has a holder or a waiter: nothing to retire.)
	if mustDie(txn, l, goal) {
		l.lowerGate()
		st.latch.Unlock()
		lm.m.WaitDieAborts.Add(1)
		if lm.rec.Enabled() {
			lm.rec.Event(obs.EvTxnAbort, id.String(), AbortWaitDie.String(), int64(txn.tid))
		}
		return at, txn.noteAbort(&AbortError{Reason: AbortWaitDie, Resource: id})
	}
	// Safe to wait. The holders entry (for an upgrade) keeps its
	// current mode while we wait — we still hold that.
	//
	// Logical blame: the same sampled who-blocks-whom attribution the
	// physical locks get, but in the DB's own vocabulary — the resource
	// class and mode the blocked request wants vs what its first
	// blocker holds. Captured under the latch (the blocker set shifts
	// once it drops), recorded with the wait's duration in the deferred
	// observation below. The sample is drawn from LockWaits, which
	// counts this wait here.
	var blameW, blameH obs.SiteID
	if lm.rec.BlameSampled(lm.m.LockWaits.Add(1)) {
		blameW = lm.rec.NamedSite("oltp:" + classOf(id) + "/want-" + goal.String())
		blameH = lm.rec.NamedSite("oltp:" + classOf(id) + "/hold-" + firstBlocker(l, txn, goal))
	}
	w := &waiter{txn: txn, cur: cur, mode: goal, ready: make(chan struct{})}
	// The wait context derives from the transaction's own: the caller
	// walking away (BeginCtx/RunCtx) ends the wait from above, and the
	// backstop is its deadline. Logical waits are the cancellable ones;
	// golc's physical waits never are.
	ctx, cancel := context.WithTimeout(txn.ctx, lm.timeout)
	defer cancel() // release the context's resources on every path
	l.waiters = append(l.waiters, w)
	st.latch.Unlock()
	// One observation per blocked acquire, however the wait ends (the
	// deferred record covers every return below); the block event gives
	// the flight recorder the queue-entry edge.
	var t0 int64
	if lm.rec.Enabled() {
		t0 = lm.rec.Now()
		lm.rec.Event(obs.EvTxnBlock, id.String(), goal.String(), int64(txn.tid))
	}
	defer func() {
		if t0 != 0 {
			d := lm.rec.Now() - t0
			lm.lockWait.Observe(d)
			if blameW != 0 {
				lm.rec.RecordBlame(blameW, blameH, "oltp/"+id.Table, d)
			}
		}
	}()
	select {
	case <-w.ready:
		// Only the grant path closes ready, so this wake needs no
		// re-check (cancellations come in on the ctx arm).
		return txn.noteHeld(at, hash, goal, l), nil
	case <-ctx.Done():
	}
	// Cancelled or timed out — but a grant may have raced either wake.
	// Resolve under the stripe latch, where granted is set: a granted
	// waiter has already left the queue, and a racing cancellation or
	// timeout must not abort a transaction that is, in fact, holding
	// the lock.
	lm.lock(st)
	if w.granted {
		st.latch.Unlock()
		return txn.noteHeld(at, hash, goal, l), nil
	}
	for i, q := range l.waiters {
		if q == w {
			l.dequeue(i)
			break
		}
	}
	// Our departure can unblock the queue: a waiter behind us may have
	// been gated only by our (conflicting) request, exactly as when a
	// holder leaves in releaseAll.
	st.settle(l)
	st.latch.Unlock()
	// Whose abort it is: the caller's context, else the deadline.
	if cerr := txn.ctx.Err(); cerr != nil {
		// The caller's own context ended the wait (RunCtx/BeginCtx).
		// This is not a wait-die abort: the transaction would not win
		// anything by being retried older, because nobody is waiting for
		// the answer anymore. Surface the caller's error, terminally.
		lm.m.CtxCancels.Add(1)
		if lm.rec.Enabled() {
			lm.rec.Event(obs.EvTxnAbort, id.String(), "ctx-cancel", int64(txn.tid))
		}
		return at, fmt.Errorf("oltp: lock wait on %s cancelled by caller: %w", id, cerr)
	}
	lm.m.TimeoutAborts.Add(1)
	if lm.rec.Enabled() {
		lm.rec.Event(obs.EvTxnAbort, id.String(), AbortTimeout.String(), int64(txn.tid))
	}
	return at, txn.noteAbort(&AbortError{Reason: AbortTimeout, Resource: id})
}

// grant hands the lock to the longest-waiting compatible prefix of the
// queue. Called with the stripe latch held after any holder change.
func grant(l *dbLock) {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if !grantable(l, w.txn, w.cur, w.mode) {
			return
		}
		l.dequeue(0)
		l.hold(w.txn, w.cur, w.mode)
		w.granted = true
		close(w.ready)
	}
}

// release drops txn's hold on one resource, waking newly grantable
// waiters. It goes straight to the head the held entry points at: no
// hash, no table lookup. Used by releaseAll and by escalation (record
// entries fold into the partition hold and are dropped individually
// mid-txn — the one sanctioned early release, since the coarser lock
// still covers them). A slot hold is cleared without the latch; the
// gate is read after the clear, as in enterSlot.
func (lm *lockManager) release(txn *Txn, e *heldLock) {
	if e.slot != 0 {
		e.lock.in.slots[e.slot-1].clear()
		if e.lock.in.gate.Load() {
			lm.regrant(e.lock)
		}
		return
	}
	st := lm.stripeFor(e.hash)
	lm.lock(st)
	e.lock.drop(txn)
	st.settle(e.lock)
	st.latch.Unlock()
}

// releaseAll drops every lock txn holds (strict 2PL: called only from
// Commit and Abort), waking newly grantable waiters as it goes. The
// entries are zeroed, not just truncated away: the backing array lives
// as long as the Txn, which Run recycles, and would otherwise pin
// retired heads.
func (lm *lockManager) releaseAll(txn *Txn) {
	for i := range txn.held {
		lm.release(txn, &txn.held[i])
	}
	clear(txn.held)
	txn.held = txn.held[:0]
	txn.index = nil
}

// entries counts live lock-table entries across all stripes: record
// heads, and nodes that someone holds — by name or in a slot — or
// awaits (test and stats hook: a quiescent DB must report zero — locks
// are strict-2PL, so anything left over is a leak). It latches each
// stripe directly, NOT through lm.lock: a monitoring probe must not
// inflate the LatchMisses contention metric it is reported next to.
func (lm *lockManager) entries() int {
	n := 0
	for _, st := range lm.stripes {
		st.latch.Lock()
		n += st.live
		for l := range st.eachNode() {
			if len(l.holders) != 0 || len(l.waiters) != 0 || l.in.occupied() {
				n++
			}
		}
		st.latch.Unlock()
	}
	return n
}
