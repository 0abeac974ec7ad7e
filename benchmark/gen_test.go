package main

import (
	"math"
	"testing"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	a, b := streamHash(7, 2, 4096, 2000), streamHash(7, 2, 4096, 2000)
	if a != b {
		t.Fatalf("same seed gave different op streams: %x vs %x", a, b)
	}
	if c := streamHash(8, 2, 4096, 2000); c == a {
		t.Fatalf("seeds 7 and 8 gave the same op stream %x", a)
	}
	// Connections of one seed must not share a stream either.
	if g0, g1 := newMixGen(7, 0, 4096), newMixGen(7, 1, 4096); g0.next().ops[0] == g1.next().ops[0] &&
		g0.next().ops[0] == g1.next().ops[0] && g0.next().ops[0] == g1.next().ops[0] {
		t.Fatal("connections 0 and 1 issue the same transactions")
	}
}

func TestMixFractions(t *testing.T) {
	const n, subs = 400000, 4096
	g := newMixGen(42, 0, subs)
	var kinds [numMixKinds]int
	hot, twoReads, lastSeq := 0, 0, 0
	for i := 0; i < n; i++ {
		txn := g.next()
		kinds[txn.kind]++
		if txn.ops[0].Table != subTable {
			t.Fatalf("transaction %d does not begin at the subscriber row: %+v", i, txn.ops[0])
		}
		if txn.ops[0].Key < subKey(subs/hotSetDiv) {
			hot++
		}
		write := txn.kind != mixRead
		if write != (txn.seq != 0) {
			t.Fatalf("transaction %d: kind %d with seq %d", i, txn.kind, txn.seq)
		}
		if !write {
			if len(txn.ops) == 2 {
				twoReads++
			}
			continue
		}
		if txn.seq != lastSeq+1 {
			t.Fatalf("write sequence jumped from %d to %d", lastSeq, txn.seq)
		}
		lastSeq = txn.seq
		if ack := txn.ops[len(txn.ops)-1]; ack.Table != ackTable || ack.Key != "0" || ack.Op != "write" {
			t.Fatalf("write transaction %d does not end with its ack row: %+v", i, ack)
		}
	}
	within := func(what string, got int, of int, want float64) {
		t.Helper()
		if frac := float64(got) / float64(of); math.Abs(frac-want) > 0.01 {
			t.Errorf("%s: %.4f of the mix, want %.4f ± 0.01", what, frac, want)
		}
	}
	within("reads", kinds[mixRead], n, 0.80)
	within("updates", kinds[mixUpdate], n, 0.14)
	within("inserts", kinds[mixInsert], n, 0.03)
	within("deletes", kinds[mixDelete], n, 0.03)
	within("two-read reads", twoReads, kinds[mixRead], 0.50)
	// The hot set draws hotAccessFrac directly plus its share of the uniform rest.
	within("hot-set accesses", hot, n, hotAccessFrac+(1-hotAccessFrac)/hotSetDiv)
}

func TestTagRoundTrip(t *testing.T) {
	for _, c := range []struct{ conn, seq int }{{0, 1}, {populateConn, 0}, {63, 123456}} {
		conn, seq, ok := parseTag(tagged(c.conn, c.seq, "loc=00:ff"))
		if !ok || conn != c.conn || seq != c.seq {
			t.Errorf("tagged(%d, %d) parsed back as (%d, %d, %v)", c.conn, c.seq, conn, seq, ok)
		}
	}
	for _, bad := range []string{"", "fwd=+000000000", "1:x:y", "sub=3 bit=1"} {
		if _, _, ok := parseTag(bad); ok {
			t.Errorf("parseTag(%q) accepted an untagged value", bad)
		}
	}
}
