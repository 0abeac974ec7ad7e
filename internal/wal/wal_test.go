package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
)

func testRuntime(t *testing.T) *lcrt.Runtime {
	t.Helper()
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func testStore(rt *lcrt.Runtime) *kv.Store {
	return kv.New(kv.Options{Shards: 8, Runtime: rt})
}

// lockPolicies maps each lock in rt's snapshot to its policy's name.
func lockPolicies(rt *lcrt.Runtime) map[string]string {
	m := map[string]string{}
	for _, ls := range rt.Snapshot().Locks {
		m[ls.Name] = ls.Policy
	}
	return m
}

func openTest(t *testing.T, dir string, rt *lcrt.Runtime) (*Log, *kv.Store, RecoveryStats) {
	t.Helper()
	store := testStore(rt)
	l, rs, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block}, store)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, store, rs
}

func put(k, v string) []kv.Write { return []kv.Write{{Key: k, Value: v}} }

func TestCodecRoundTrip(t *testing.T) {
	batch := []kv.Write{
		{Key: "a", Value: "1"},
		{Key: "long/key/with/slashes", Value: strings.Repeat("v", 1000)},
		{Key: "gone", Delete: true, Value: "ignored"},
		{Key: "", Value: ""},
	}
	buf := appendRecord(nil, 42, batch)
	if len(buf) != recordSize(batch) {
		t.Fatalf("recordSize=%d, encoded %d bytes", recordSize(batch), len(buf))
	}
	payload, rest, ok, err := nextFrame(buf)
	if err != nil || !ok || len(rest) != 0 {
		t.Fatalf("nextFrame: ok=%v rest=%d err=%v", ok, len(rest), err)
	}
	lsn, got, err := decodeRecord(payload)
	if err != nil || lsn != 42 {
		t.Fatalf("decodeRecord: lsn=%d err=%v", lsn, err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d writes, want %d", len(got), len(batch))
	}
	for i, w := range got {
		want := batch[i]
		if want.Delete {
			want.Value = "" // deletes shed their value on disk
		}
		if w != want {
			t.Errorf("write %d: got %+v want %+v", i, w, want)
		}
	}
}

func TestCommitDurableAndRecovered(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	l, store, rs := openTest(t, dir, rt)
	if rs.CheckpointLSN != 0 || rs.RecordsReplayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rs)
	}
	for i := 0; i < 10; i++ {
		batch := []kv.Write{
			{Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)},
			{Key: "counter", Value: fmt.Sprintf("%d", i)},
		}
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	st := l.Stats()
	if st.Appends != 10 || st.DurableLSN != 10 || st.AppliedLSN != 10 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Syncs == 0 || st.GroupSize.Count != st.Syncs {
		t.Fatalf("group histogram out of step with syncs: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen into a fresh store: everything committed must reappear.
	l2, store2, rs2 := openTest(t, dir, rt)
	defer l2.Close()
	if rs2.RecordsReplayed != 10 || rs2.WritesReplayed != 20 || rs2.MaxLSN != 10 {
		t.Fatalf("recovery stats: %+v", rs2)
	}
	for i := 0; i < 10; i++ {
		if v, ok := store2.Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d: got %q,%v", i, v, ok)
		}
	}
	if v, _ := store2.Get("counter"); v != "9" {
		t.Fatalf("counter: %q", v)
	}
	// And the recovered log continues the LSN sequence.
	lsn, err := l2.Commit(put("post", "recovery"))
	if err != nil || lsn != 11 {
		t.Fatalf("post-recovery commit: lsn=%d err=%v", lsn, err)
	}
}

func TestDeleteRoundTripsThroughRecovery(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	l, store, _ := openTest(t, dir, rt)
	mustCommit := func(batch []kv.Write) {
		t.Helper()
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	mustCommit(put("stay", "here"))
	mustCommit(put("doomed", "soon"))
	mustCommit([]kv.Write{{Key: "doomed", Delete: true}})
	l.Close()

	_, store2, _ := openTest(t, dir, rt)
	if _, ok := store2.Get("doomed"); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	if v, _ := store2.Get("stay"); v != "here" {
		t.Fatalf("stay: %q", v)
	}
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	store := testStore(rt)
	// A slow sync hook guarantees overlap: while the first fsync
	// sleeps, every other committer stages and must ride one group.
	gate := make(chan struct{})
	var once sync.Once
	opts := Options{Dir: dir, Runtime: rt, Policy: golc.Block,
		SyncHook: func(f *os.File) error {
			once.Do(func() { <-gate })
			return f.Sync()
		}}
	l, _, err := Open(opts, store)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Commit(put(fmt.Sprintf("g%d", i), "x"))
		}(i)
	}
	// Let the stragglers stage behind the gated first sync.
	for l.Stats().Appends < n {
		if l.Stats().Syncs > 0 {
			break
		}
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Syncs >= n {
		t.Fatalf("no batching: %d syncs for %d commits", st.Syncs, n)
	}
	if st.DurableLSN != n {
		t.Fatalf("durable=%d want %d", st.DurableLSN, n)
	}
	// The committers that rode a group waited for it through the handle's Wait:
	// the seam's handle must have their waits in its histogram.
	if waits := l.h.Stats().Wait.Count; waits == 0 || waits > n {
		t.Fatalf("wal/group-commit recorded %d waits for %d commits behind a gated fsync", waits, n)
	}
}

// fsyncGate is a SyncHook that holds every fsync of a log until the test
// lets it finish: entered receives as each fsync begins, and each send
// on release lets one finish.
type fsyncGate struct {
	entered chan struct{}
	release chan struct{}
	open    chan struct{} // closed at cleanup: no fsync waits any more
}

func (g *fsyncGate) sync(f *os.File) error {
	select {
	case g.entered <- struct{}{}:
	case <-g.open:
	}
	select {
	case <-g.release:
	case <-g.open:
	}
	return f.Sync()
}

// openGated opens a log under policy whose fsyncs wait on the returned
// gate. Its runtime's SleepTimeout is a minute, so the backstop cannot
// hide a missed wake, and load, when non-nil, pins the controller's
// load. Cleanup opens the gate before it closes the log, so a failing
// test cannot leave the syncer stuck.
func openGated(t *testing.T, policy golc.ContentionPolicy, load lcrt.LoadFunc) (*Log, *fsyncGate) {
	t.Helper()
	rt := lcrt.New(lcrt.Options{SleepTimeout: time.Minute, LoadFunc: load})
	rt.Start()
	t.Cleanup(rt.Stop)
	g := &fsyncGate{entered: make(chan struct{}), release: make(chan struct{}), open: make(chan struct{})}
	l, _, err := Open(Options{Dir: t.TempDir(), Runtime: rt, Policy: policy, SyncHook: g.sync}, testStore(rt))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		close(g.open)
		l.Close()
	})
	return l, g
}

// commitAsync commits one record from a new goroutine; the channel
// carries its result.
func commitAsync(l *Log, key string) <-chan error {
	res := make(chan error, 1)
	go func() {
		_, err := l.Commit(put(key, "v"))
		res <- err
	}()
	return res
}

func waitCommitted(t *testing.T, res <-chan error) {
	t.Helper()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit not acknowledged within 5s of its fsync")
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

// TestGroupWakeLeavesNextGroupParked: with two groups in flight, the
// first group's fsync wakes its own committer and nobody from the
// second, whose fsync has not run: each commit parks once and is woken
// once, by its own group.
func TestGroupWakeLeavesNextGroupParked(t *testing.T) {
	const n = 8
	l, g := openGated(t, golc.Block, nil)
	first := commitAsync(l, "first")
	<-g.entered // group 1 = {first} is in its fsync
	var rest []<-chan error
	for i := 0; i < n; i++ {
		rest = append(rest, commitAsync(l, fmt.Sprintf("next%d", i)))
	}
	waitUntil(t, "every committer parked", func() bool { return l.h.Stats().SleepingNow == n+1 })
	g.release <- struct{}{}
	<-g.entered // group 2 = the other n is in its fsync, after group 1's wake
	waitCommitted(t, first)
	if ls := l.h.Stats(); ls.UnlockWakes != 1 || ls.SleepingNow != n || ls.Blocks != n+1 {
		t.Fatalf("after group 1 synced: %d unlock wakes, %d parked, %d parks; want 1, %d, %d (group 2 woken before its fsync)",
			ls.UnlockWakes, ls.SleepingNow, ls.Blocks, n, n+1)
	}
	g.release <- struct{}{}
	for _, res := range rest {
		waitCommitted(t, res)
	}
	if ls := l.h.Stats(); ls.Blocks > n+1 || ls.UnlockWakes != ls.Blocks || ls.TimeoutWakes != 0 {
		t.Fatalf("%d parks, %d unlock wakes, %d timeout wakes for %d commits; want at most one park each, each ended by its group",
			ls.Blocks, ls.UnlockWakes, ls.TimeoutWakes, n+1)
	}
}

// TestDurabilityWaitParksUnderLC: at zero load lc's target admits no
// claim, but a committer behind an fsync still parks through it — a
// forced claim the target does not refuse and the controller does not
// wake.
func TestDurabilityWaitParksUnderLC(t *testing.T) {
	l, g := openGated(t, golc.LoadControlled, func() int { return 0 })
	res := commitAsync(l, "k")
	<-g.entered
	waitUntil(t, "the committer parked", func() bool { return l.h.Stats().SleepingNow == 1 })
	g.release <- struct{}{}
	waitCommitted(t, res)
	ls := l.h.Stats()
	if ls.Blocks == 0 || ls.ClaimRefusals != 0 || ls.ForcedClaims != ls.Blocks || ls.ControllerWakes != 0 {
		t.Fatalf("wal/group-commit under lc at zero load: %d parks, %d refusals, %d forced, %d controller wakes; want forced parks only",
			ls.Blocks, ls.ClaimRefusals, ls.ForcedClaims, ls.ControllerWakes)
	}
}

// TestDurabilityWaitSpinsUnderSpin: spin still never parks, on the log
// as on a latch.
func TestDurabilityWaitSpinsUnderSpin(t *testing.T) {
	l, g := openGated(t, golc.Spin, nil)
	res := commitAsync(l, "k")
	<-g.entered
	waitUntil(t, "the committer waiting", func() bool {
		ls := l.h.Stats()
		return ls.SpinningNow+ls.SleepingNow == 1
	})
	time.Sleep(20 * time.Millisecond) // hundreds of park checks
	if ls := l.h.Stats(); ls.Blocks != 0 || ls.SpinningNow != 1 {
		t.Fatalf("wal/group-commit under spin behind an fsync: %d parks, %d spinning; want 0 and 1", ls.Blocks, ls.SpinningNow)
	}
	g.release <- struct{}{}
	waitCommitted(t, res)
}

func TestSyncErrorSurfacesToCommitterAndWedgesLog(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	store := testStore(rt)
	fail := fmt.Errorf("injected fsync failure")
	l, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block,
		SyncHook: func(*os.File) error { return fail }}, store)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	if _, err := l.Commit(put("k", "v")); err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("Commit error = %v, want injected failure", err)
	}
	// The log is wedged: later appends refuse outright.
	if _, err := l.Append(put("k2", "v2")); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("post-wedge Append = %v, want wedged error", err)
	}
	if err := l.Wedged(); err == nil {
		t.Fatal("Wedged() = nil on a wedged log")
	}
	if _, err := l.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a wedged log must refuse")
	}
}

func TestWriteErrorSurfacesToCommitter(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	store := testStore(rt)
	fail := fmt.Errorf("injected write failure")
	l, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block,
		WriteHook: func(*os.File, []byte) (int, error) { return 0, fail }}, store)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Commit(put("k", "v")); err == nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("Commit error = %v, want injected failure", err)
	}
}

// commitN writes n single-key commits and closes the log.
func commitN(t *testing.T, dir string, rt *lcrt.Runtime, n int) {
	t.Helper()
	l, store, _ := openTest(t, dir, rt)
	for i := 0; i < n; i++ {
		batch := put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return names[len(names)-1]
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	commitN(t, dir, rt, 5)

	// Tear the tail: append half a record's worth of garbage, as if
	// the process died mid-write.
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := appendRecord(nil, 6, put("torn", "never-acked"))
	if _, err := f.Write(garbage[:len(garbage)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, store, rs := openTest(t, dir, rt)
	defer l.Close()
	if rs.TornBytes != int64(len(garbage)-3) {
		t.Fatalf("TornBytes=%d want %d (stats %+v)", rs.TornBytes, len(garbage)-3, rs)
	}
	if rs.RecordsReplayed != 5 || rs.MaxLSN != 5 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if _, ok := store.Get("torn"); ok {
		t.Fatal("torn record must not replay")
	}
	// The torn segment was physically truncated: recovering again
	// finds a clean log.
	l.Close()
	_, _, rs2 := openTest(t, dir, rt)
	if rs2.TornBytes != 0 || rs2.RecordsReplayed != 5 {
		t.Fatalf("second recovery not clean: %+v", rs2)
	}
}

func TestCorruptCRCTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	// Tiny segments: 5 commits spread over several files.
	store := testStore(rt)
	l, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block, SegmentBytes: 32}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		batch := put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}

	// Flip a payload byte in the SECOND segment: recovery must keep
	// segment one, truncate segment two at the bad frame, and drop
	// every later segment unseen.
	data, err := os.ReadFile(segs[1])
	if err != nil || len(data) == 0 {
		t.Fatalf("read %s: %v (%d bytes)", segs[1], err, len(data))
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, store2, rs := openTest(t, dir, rt)
	defer l2.Close()
	if rs.DroppedSegments == 0 {
		t.Fatalf("no segments dropped after corruption: %+v", rs)
	}
	if rs.TornBytes == 0 {
		t.Fatalf("corrupt frame not truncated: %+v", rs)
	}
	// k0 (first segment) survives; the corrupted record and everything
	// after it are gone.
	if v, ok := store2.Get("k0"); !ok || v != "v0" {
		t.Fatalf("k0: %q,%v", v, ok)
	}
	if store2.Len() >= 5 {
		t.Fatalf("store has %d keys; corruption should have cut the tail", store2.Len())
	}
}

func TestCheckpointSeedsRecoveryAndGCsSegments(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	store := testStore(rt)
	l, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block, SegmentBytes: 64}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		batch := put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	before := l.Stats().Segments
	cut, err := l.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cut != 20 {
		t.Fatalf("cut=%d want 20", cut)
	}
	if after := l.Stats().Segments; after >= before {
		t.Fatalf("GC removed nothing: %d -> %d segments", before, after)
	}
	// More commits after the checkpoint.
	for i := 20; i < 25; i++ {
		batch := put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		lsn, err := l.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		store.ApplyBatch(batch)
		l.NoteApplied(lsn)
	}
	l.Close()

	l2, store2, rs := openTest(t, dir, rt)
	defer l2.Close()
	if rs.CheckpointLSN != 20 || rs.CheckpointKeys != 20 {
		t.Fatalf("checkpoint not used: %+v", rs)
	}
	if rs.RecordsReplayed != 5 {
		t.Fatalf("replayed %d records past the checkpoint, want 5 (%+v)", rs.RecordsReplayed, rs)
	}
	if store2.Len() != 25 {
		t.Fatalf("store has %d keys, want 25", store2.Len())
	}
}

func TestRecoveryIdempotentWhenInterrupted(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	commitN(t, dir, rt, 8)

	// Simulate an interrupted recovery: open (which truncates nothing
	// here but creates a fresh active segment), then "crash" without
	// closing cleanly, repeatedly. Every pass must see the same log.
	var want []kv.KV
	for pass := 0; pass < 3; pass++ {
		store := testStore(rt)
		l, rs, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block}, store)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if rs.RecordsReplayed != 8 || rs.MaxLSN != 8 {
			t.Fatalf("pass %d stats: %+v", pass, rs)
		}
		got := store.Scan("", 0)
		if pass == 0 {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pass %d diverged:\n got %v\nwant %v", pass, got, want)
		}
		// Abandon l without Close: the next Open must cope. (Leak the
		// syncer goroutine deliberately; it idles on an empty kick
		// channel. Stop it anyway to keep -race happy across passes.)
		l.Close()
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	store := testStore(rt)
	l, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block, SegmentBytes: 128}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 30; i++ {
		if _, err := l.Commit(put(fmt.Sprintf("rot%02d", i), strings.Repeat("x", 32))); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation: %+v", st)
	}
}

func TestPolicySwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(t)
	l, _, _ := openTest(t, dir, rt)
	defer l.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Commit(put(fmt.Sprintf("p%d-%d", g, i), "v")); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for _, name := range []string{"spin", "lc", "block"} {
		p, err := golc.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetPolicy(p)
		got := lockPolicies(rt)
		for _, lock := range []string{"wal/tail", "wal/group-commit"} {
			if got[lock] != name {
				t.Fatalf("%s policy after the swap to %s: %q", lock, name, got[lock])
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestOpenRefusesNonEmptyStore(t *testing.T) {
	rt := testRuntime(t)
	store := testStore(rt)
	store.Put("pre", "existing")
	if _, _, err := Open(Options{Dir: t.TempDir(), Runtime: rt}, store); err == nil {
		t.Fatal("Open accepted a non-empty store")
	}
}

func TestOpenDefaultsToLC(t *testing.T) {
	rt := testRuntime(t)
	l, _, err := Open(Options{Dir: t.TempDir(), Runtime: rt}, testStore(rt))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := lockPolicies(rt)
	for _, lock := range []string{"wal/tail", "wal/group-commit"} {
		if got[lock] != "lc" {
			t.Fatalf("%s of a log opened without a policy runs %q, want lc", lock, got[lock])
		}
	}
}
