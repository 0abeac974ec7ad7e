package runtime

import (
	goruntime "runtime"
	"testing"
	"time"
)

// observeWaits injects n synthetic wait observations of d into a
// handle's histogram, standing in for contended acquisitions.
func observeWaits(h *Handle, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		h.wait.Observe(int64(d))
	}
}

// TestHistoryIntervalQuantiles drives tick() by hand and checks the
// quantiles are per-interval deltas, not cumulative: a lock that was
// hot last tick and idle now must read idle now.
func TestHistoryIntervalQuantiles(t *testing.T) {
	rt := New(Options{})
	h := rt.Register("hist-lock")
	defer h.Close()
	hist := NewHistory(rt, HistoryOptions{})

	// One overloaded controller tick first: the record keeps its inputs
	// beside the saturated target.
	sens, _ := fakeLoadavg(t, goruntime.NumCPU()+3) // OSExcess = +2
	rt.update(sens)
	snap := rt.Snapshot()

	observeWaits(h, 100, time.Millisecond)
	hist.tick(1)
	recs := hist.Records()
	if len(recs) != 1 || len(recs[0].Locks) != 1 {
		t.Fatalf("after one tick: %d records, locks=%v", len(recs), recs)
	}
	if r := recs[0]; r.Target != maxTarget || r.Load != snap.Load || r.Load < 2 ||
		r.RunQueue != snap.RunQueue || r.OSExcess != 2 {
		t.Fatalf("record target/load/runq/os = %d/%d/%v/%d, want %d/%d/%v/2 from the tick",
			r.Target, r.Load, r.RunQueue, r.OSExcess, maxTarget, snap.Load, snap.RunQueue)
	}
	lt := recs[0].Locks[0]
	if lt.Name != "hist-lock" || lt.Waits != 100 {
		t.Fatalf("tick 1 = %+v, want hist-lock with 100 waits", lt)
	}
	ms := int64(time.Millisecond)
	if lt.WaitP50 < ms/2 || lt.WaitP50 > 2*ms {
		t.Errorf("tick 1 p50 = %d, want within 2x of %d", lt.WaitP50, ms)
	}

	// No new observations: the next interval must read zero even
	// though the cumulative histogram still holds the first 100.
	hist.tick(2)
	recs = hist.Records()
	lt = recs[1].Locks[0]
	if lt.Waits != 0 || lt.WaitP50 != 0 || lt.WaitP99 != 0 {
		t.Errorf("idle tick = %+v, want zero interval waits/quantiles", lt)
	}

	// A hotter interval must show its own magnitude, not the mixture
	// with older cheap waits.
	observeWaits(h, 100, 20*time.Millisecond)
	hist.tick(3)
	recs = hist.Records()
	lt = recs[2].Locks[0]
	if lt.Waits != 100 || lt.WaitP50 < 10*ms {
		t.Errorf("hot tick = %+v, want 100 waits with p50 >= 10ms", lt)
	}
}

// TestHistoryConvoyFlag checks the flag needs ConvoyTicks (3)
// consecutive intervals over ConvoyP99 (10 ms), and resets on a calm
// one.
func TestHistoryConvoyFlag(t *testing.T) {
	rt := New(Options{})
	h := rt.Register("convoy-lock")
	defer h.Close()
	hist := NewHistory(rt, HistoryOptions{})

	flag := func(now int64, hot bool) bool {
		if hot {
			observeWaits(h, 10, 50*time.Millisecond)
		}
		hist.tick(now)
		recs := hist.Records()
		return recs[len(recs)-1].Locks[0].Convoy
	}

	for now := int64(1); now < ConvoyTicks; now++ {
		if flag(now, true) {
			t.Errorf("convoy flagged after %d hot ticks, want a streak of %d", now, ConvoyTicks)
		}
	}
	if !flag(ConvoyTicks, true) {
		t.Errorf("convoy not flagged after %d consecutive hot ticks", ConvoyTicks)
	}
	if !flag(ConvoyTicks+1, true) {
		t.Error("convoy flag dropped while still hot")
	}
	if flag(ConvoyTicks+2, false) {
		t.Error("convoy flag survived a calm tick")
	}
	if flag(ConvoyTicks+3, true) {
		t.Error("streak not reset by the calm tick")
	}
}

// TestHistoryRingAndSince overfills the bounded ring and checks the
// survivors are the newest records, oldest-first, and Since filters by
// timestamp.
func TestHistoryRingAndSince(t *testing.T) {
	rt := New(Options{})
	// historyRetention/Interval = 5 min / 100 s = 3 records.
	hist := NewHistory(rt, HistoryOptions{Interval: 100 * time.Second})
	for _, ts := range []int64{10, 20, 30, 40, 50} {
		hist.tick(ts)
	}
	recs := hist.Records()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(recs))
	}
	for i, want := range []int64{30, 40, 50} {
		if recs[i].TS != want {
			t.Errorf("record %d TS = %d, want %d (oldest-first, oldest overwritten)", i, recs[i].TS, want)
		}
	}
	since := hist.Since(40)
	if len(since) != 2 || since[0].TS != 40 || since[1].TS != 50 {
		t.Errorf("Since(40) = %v, want TS 40,50", since)
	}
}

// TestHistoryStateEviction checks per-name delta/streak bookkeeping
// follows the lock census: duplicate names fold into one tick row, and
// names that disappear stop pinning state.
func TestHistoryStateEviction(t *testing.T) {
	rt := New(Options{})
	a := rt.Register("shared-name")
	b := rt.Register("shared-name")
	hist := NewHistory(rt, HistoryOptions{})

	observeWaits(a, 30, time.Millisecond)
	observeWaits(b, 70, time.Millisecond)
	hist.tick(1)
	recs := hist.Records()
	if len(recs[0].Locks) != 1 {
		t.Fatalf("duplicate names not folded: %+v", recs[0].Locks)
	}
	if lt := recs[0].Locks[0]; lt.Waits != 100 {
		t.Errorf("folded tick = %+v, want 100 combined waits", lt)
	}
	if len(hist.prev) != 1 {
		t.Errorf("prev tracks %d names, want 1", len(hist.prev))
	}

	a.Close()
	b.Close()
	hist.tick(2)
	recs = hist.Records()
	if n := len(recs[1].Locks); n != 0 {
		t.Errorf("tick after Close lists %d locks, want 0", n)
	}
	if len(hist.prev) != 0 || len(hist.streak) != 0 {
		t.Errorf("closed lock pinned state: prev=%d streak=%d, want 0,0", len(hist.prev), len(hist.streak))
	}
}

// TestHistoryStartStop exercises the goroutine path: real ticks land
// in the ring, Stop is idempotent, and Stop without Start returns.
func TestHistoryStartStop(t *testing.T) {
	rt := New(Options{})
	h := rt.Register("live-lock")
	defer h.Close()
	hist := NewHistory(rt, HistoryOptions{Interval: time.Millisecond})
	hist.Start()
	hist.Start() // second Start must be a no-op, not a second goroutine
	deadline := time.Now().Add(2 * time.Second)
	for len(hist.Records()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no history record after 2s of 1ms ticks")
		}
		time.Sleep(time.Millisecond)
	}
	hist.Stop()
	hist.Stop()

	idle := NewHistory(rt, HistoryOptions{})
	idle.Stop() // never Started: must not hang
}
