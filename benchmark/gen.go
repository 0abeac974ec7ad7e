package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

// Workload generation is seeded and lives entirely in the harness: the
// server and the engine only ever receive generated operations.

// workerSeed derives worker w's private stream from the run seed.
func workerSeed(seed int64, w int) int64 { return seed*1_000_003 + int64(w)*7919 + 1 }

// op is one operation of a /txn request, in lcserve's wire format.
type op struct {
	Op    string `json:"op"` // read | write | delete
	Table string `json:"table"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// genTxn is one generated transaction of the HTTP mix.
type genTxn struct {
	kind mixKind
	seq  int // the connection's write sequence number; 0 for read-only
	ops  []op
}

type mixKind int

const (
	mixRead   mixKind = iota // 80%: one or two reads
	mixUpdate                // 14%: one subscriber update
	mixInsert                //  3%: read, then insert two call-forwarding rows
	mixDelete                //  3%: read, then delete the same two rows
	numMixKinds
)

const (
	subTable = "sub"
	cfTable  = "cf"
	ackTable = "ack"

	hotAccessFrac = 0.6 // share of transactions aimed at the hot set
	hotSetDiv     = 64  // the hot set is 1/64 of the subscribers
)

func subKey(id int) string { return fmt.Sprintf("%08d", id) }

// cfKey names a call-forwarding row. The connection is part of the key,
// so each connection's rows are written by it alone and their recovered
// state after a crash can be checked exactly.
func cfKey(id, conn, slot int) string { return fmt.Sprintf("%08d:%d:%d", id, conn, slot) }

// tagged stamps a value with the connection and write sequence number
// that produced it ("<conn>:<seq>:<payload>").
func tagged(conn, seq int, payload string) string {
	return strconv.Itoa(conn) + ":" + strconv.Itoa(seq) + ":" + payload
}

// parseTag recovers the connection and sequence number from a tagged
// value.
func parseTag(v string) (conn, seq int, ok bool) {
	parts := strings.SplitN(v, ":", 3)
	if len(parts) != 3 {
		return 0, 0, false
	}
	conn, err1 := strconv.Atoi(parts[0])
	seq, err2 := strconv.Atoi(parts[1])
	return conn, seq, err1 == nil && err2 == nil
}

// populateConn is the tag connection of the initial load.
const populateConn = -1

// populateValue is subscriber id's row as the initial load writes it.
func populateValue(id int) string { return tagged(populateConn, 0, fmt.Sprintf("sub=%d", id)) }

// mixGen generates one connection's transactions: a TATP-shaped mix
// over the subscriber table. Every write transaction also writes the
// connection's own ack/<conn> = seq row, which is what the crash check
// reads back.
type mixGen struct {
	rng  *rand.Rand
	conn int
	subs int
	seq  int
}

func newMixGen(seed int64, conn, subs int) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(workerSeed(seed, conn))), conn: conn, subs: subs}
}

func (g *mixGen) pickSubscriber() int {
	if g.rng.Float64() < hotAccessFrac {
		return g.rng.Intn(max(1, g.subs/hotSetDiv))
	}
	return g.rng.Intn(g.subs)
}

func (g *mixGen) next() genTxn {
	id := g.pickSubscriber()
	sub := subKey(id)
	var t genTxn
	switch x := g.rng.Intn(100); {
	case x < 80:
		t.kind = mixRead
		t.ops = append(t.ops, op{Op: "read", Table: subTable, Key: sub})
		if g.rng.Intn(2) == 0 {
			t.ops = append(t.ops, op{Op: "read", Table: cfTable, Key: cfKey(id, g.conn, 0)})
		}
		return t
	case x < 94:
		t.kind = mixUpdate
		g.seq++
		t.ops = append(t.ops, op{Op: "write", Table: subTable, Key: sub,
			Value: tagged(g.conn, g.seq, fmt.Sprintf("loc=%08x", g.rng.Uint32()))})
	case x < 97:
		t.kind = mixInsert
		g.seq++
		fwd := fmt.Sprintf("fwd=+%09d", g.rng.Intn(1_000_000_000))
		t.ops = append(t.ops, op{Op: "read", Table: subTable, Key: sub},
			op{Op: "write", Table: cfTable, Key: cfKey(id, g.conn, 0), Value: tagged(g.conn, g.seq, fwd)},
			op{Op: "write", Table: cfTable, Key: cfKey(id, g.conn, 1), Value: tagged(g.conn, g.seq, fwd)})
	default:
		t.kind = mixDelete
		g.seq++
		t.ops = append(t.ops, op{Op: "read", Table: subTable, Key: sub},
			op{Op: "delete", Table: cfTable, Key: cfKey(id, g.conn, 0)},
			op{Op: "delete", Table: cfTable, Key: cfKey(id, g.conn, 1)})
	}
	t.seq = g.seq
	t.ops = append(t.ops, op{Op: "write", Table: ackTable, Key: strconv.Itoa(g.conn), Value: strconv.Itoa(g.seq)})
	return t
}

// streamHash fingerprints the first n transactions each of conns
// connections would issue under seed.
func streamHash(seed int64, conns, subs, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < conns; c++ {
		g := newMixGen(seed, c, subs)
		for i := 0; i < n; i++ {
			for _, o := range g.next().ops {
				fmt.Fprintf(h, "%s|%s|%s|%s\n", o.Op, o.Table, o.Key, o.Value)
			}
		}
	}
	return h.Sum64()
}
