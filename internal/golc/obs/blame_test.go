package obs

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// TestBlameInterning checks both site flavors and lock names intern to
// stable IDs: same input, same ID; distinct inputs, distinct IDs.
func TestBlameInterning(t *testing.T) {
	rec := NewRecorder()
	a := rec.NamedSite("site-a")
	b := rec.NamedSite("site-b")
	if a == 0 || b == 0 {
		t.Fatalf("NamedSite returned 0: a=%d b=%d", a, b)
	}
	if a == b {
		t.Fatalf("distinct names interned to one ID %d", a)
	}
	if again := rec.NamedSite("site-a"); again != a {
		t.Errorf("re-interning site-a: got %d, want %d", again, a)
	}
	if rec.NamedSite("") != 0 {
		t.Error("empty name must intern to 0 (unknown)")
	}
	stack := rec.CallerSite(0)
	if stack == 0 {
		t.Fatal("CallerSite returned 0")
	}
	if stack == a || stack == b {
		t.Errorf("stack site %d collides with a named site", stack)
	}
	if lockA, lockB := rec.blame.internLock("lk-a"), rec.blame.internLock("lk-b"); lockA == lockB || lockA == 0 {
		t.Errorf("lock interning broken: a=%d b=%d", lockA, lockB)
	}
	if again := rec.blame.internLock("lk-a"); again != rec.blame.internLock("lk-a") {
		t.Errorf("lock re-interning unstable: %d", again)
	}
}

// TestRecordBlameAggregation checks edges accumulate per
// (waiter, holder, lock) cell, waiter 0 is a no-op, holder 0 renders
// as "unknown", negative durations clamp to 0, and BlameTop ranks by
// blocked nanoseconds.
func TestRecordBlameAggregation(t *testing.T) {
	rec := NewRecorder()
	w := rec.NamedSite("waiter-site")
	h := rec.NamedSite("holder-site")

	rec.RecordBlame(w, h, "lock-a", 10)
	rec.RecordBlame(w, h, "lock-a", 20)
	rec.RecordBlame(w, 0, "lock-a", 5)  // unknown holder: a distinct edge
	rec.RecordBlame(0, h, "lock-a", 99) // no waiter: dropped silently
	rec.RecordBlame(w, h, "lock-b", -7) // clamps to 0 ns, still counts

	edges := rec.BlameEdges()
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3: %+v", len(edges), edges)
	}
	top := edges[0]
	if top.WaiterName != "waiter-site" || top.HolderName != "holder-site" ||
		top.Lock != "lock-a" || top.Count != 2 || top.Ns != 30 {
		t.Errorf("top edge = %+v, want waiter-site/holder-site/lock-a count=2 ns=30", top)
	}
	if edges[1].Ns != 5 || edges[1].HolderName != "" || len(edges[1].HolderPCs) != 0 {
		t.Errorf("second edge = %+v, want unknown-holder edge ns=5", edges[1])
	}
	if edges[2].Lock != "lock-b" || edges[2].Count != 1 || edges[2].Ns != 0 {
		t.Errorf("clamped edge = %+v, want lock-b count=1 ns=0", edges[2])
	}

	entries := rec.BlameTop(2)
	if len(entries) != 2 {
		t.Fatalf("BlameTop(2) returned %d entries", len(entries))
	}
	if entries[0].Waiter != "waiter-site" || entries[0].Holder != "holder-site" || entries[0].Ns != 30 {
		t.Errorf("BlameTop[0] = %+v", entries[0])
	}
	if entries[1].Holder != "unknown" {
		t.Errorf("BlameTop[1].Holder = %q, want unknown", entries[1].Holder)
	}
}

// TestBlameDropped overfills the fixed matrix with distinct edges and
// checks nothing is silently lost: every add is either in a cell or
// counted as dropped.
func TestBlameDropped(t *testing.T) {
	tbl := newBlameTable()
	const total = 2 * blameCells
	for i := 1; i <= total; i++ {
		tbl.add(1<<63|uint64(i), 5)
	}
	var recorded uint64
	for i := range tbl.cells {
		recorded += tbl.cells[i].count.Load()
	}
	dropped := tbl.dropped.Load()
	if dropped == 0 {
		t.Fatalf("%d distinct edges into %d cells dropped nothing", total, blameCells)
	}
	if recorded+dropped != total {
		t.Fatalf("recorded %d + dropped %d != %d adds (silent loss)", recorded, dropped, total)
	}
}

// TestWriteBlameFolded pins the folded-stacks line shape: root-first
// frames, synthetic lock:/holder: leaves, spaces escaped, blocked-ns
// value.
func TestWriteBlameFolded(t *testing.T) {
	edges := []BlameEdge{
		{
			WaiterName: "oltp:partition(acct)/want-X",
			HolderName: "oltp:partition(acct)/hold-S",
			Lock:       "oltp/acct",
			Count:      3,
			Ns:         1500,
		},
		{WaiterName: "spaced site", Lock: "my lock", Count: 1, Ns: 7},
	}
	var buf bytes.Buffer
	if err := WriteBlameFolded(&buf, edges); err != nil {
		t.Fatal(err)
	}
	want := "oltp:partition(acct)/want-X;lock:oltp/acct;holder:oltp:partition(acct)/hold-S 1500\n" +
		"spaced_site;lock:my_lock;holder:unknown 7\n"
	if buf.String() != want {
		t.Errorf("folded output:\n%q\nwant:\n%q", buf.String(), want)
	}

	// A stack-site edge must symbolize root-first: the leaf (this
	// package) should appear just before the synthetic lock: frame.
	rec := NewRecorder()
	w := rec.CallerSite(0)
	rec.RecordBlame(w, 0, "lk", 42)
	buf.Reset()
	if err := WriteBlameFolded(&buf, rec.BlameEdges()); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	if !strings.HasSuffix(line, " 42") {
		t.Fatalf("stack edge line %q lacks value suffix", line)
	}
	frames := strings.Split(strings.TrimSuffix(line, " 42"), ";")
	if len(frames) < 3 {
		t.Fatalf("stack edge has %d frames, want >= 3: %q", len(frames), line)
	}
	if frames[len(frames)-2] != "lock:lk" || frames[len(frames)-1] != "holder:unknown" {
		t.Errorf("synthetic leaves wrong: %q", frames[len(frames)-2:])
	}
	leaf := frames[len(frames)-3]
	if !strings.Contains(leaf, "TestWriteBlameFolded") {
		t.Errorf("leaf frame %q should be this test (root-first order)", leaf)
	}
}

// TestWriteBlameProfileWireFormat gunzips the emitted profile and
// walks the protobuf top level: the field census, string table, and
// period must match what a pprof reader needs.
func TestWriteBlameProfileWireFormat(t *testing.T) {
	rec := NewRecorder()
	w := rec.CallerSite(0)
	h := rec.NamedSite("logical-holder")
	rec.RecordBlame(w, h, "lock-pb", 12345)
	rec.RecordBlame(rec.NamedSite("logical-waiter"), 0, "lock-pb", 67)

	var buf bytes.Buffer
	if err := WriteBlameProfile(&buf, rec.BlameEdges(), 64); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	counts := map[int]int{}
	strs := map[string]bool{}
	var period int64
	for b := raw; len(b) > 0; {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("bad field key at offset %d", len(raw)-len(b))
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		counts[field]++
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				t.Fatalf("bad varint in field %d", field)
			}
			b = b[n:]
			if field == 12 {
				period = int64(v)
			}
		case 2:
			ln, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < ln {
				t.Fatalf("bad length in field %d", field)
			}
			payload := b[n : n+int(ln)]
			b = b[n+int(ln):]
			if field == 6 {
				strs[string(payload)] = true
			}
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}

	if counts[1] != 2 {
		t.Errorf("sample_type count = %d, want 2 (blocks/count, blocked/nanoseconds)", counts[1])
	}
	if counts[2] != 2 {
		t.Errorf("sample count = %d, want 2", counts[2])
	}
	if counts[3] != 1 {
		t.Errorf("mapping count = %d, want 1", counts[3])
	}
	if counts[4] == 0 || counts[5] == 0 {
		t.Errorf("locations=%d functions=%d, want both > 0", counts[4], counts[5])
	}
	if counts[11] != 1 || period != 64 {
		t.Errorf("period_type=%d period=%d, want 1 and 64", counts[11], period)
	}
	for _, s := range []string{"", "blocks", "count", "blocked", "nanoseconds",
		"lock", "lock-pb", "holder", "logical-holder", "logical-waiter", "golc"} {
		if !strs[s] {
			t.Errorf("string table missing %q", s)
		}
	}
	if !strs["unknown"] {
		t.Error("string table missing the unknown-holder label")
	}
}
