package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestRenderOnce: the -once frame of a live handler, volatile and
// durable, prints what that handler's own /stats reports and no ANSI
// escape. The runtime's load is pinned, so nothing on the frame moves
// between the two reads once the commits are in.
func TestRenderOnce(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			rt := lcrt.New(lcrt.Options{Interval: time.Millisecond, LoadFunc: func() int { return 3 }})
			srv := serve(t, rt, durable)

			for i := 0; i < 3; i++ {
				body := fmt.Sprintf(`{"ops":[{"op":"write","table":"acct","key":"k%d","value":"v"}]}`, i)
				resp, err := http.Post(srv.URL+"/txn", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /txn = %s", resp.Status)
				}
			}
			for rt.Snapshot().Updates == 0 {
				time.Sleep(time.Millisecond)
			}

			var want server.Stats
			resp, err := http.Get(srv.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&want)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			frame, err := (&viewer{client: srv.Client(), base: srv.URL, topLocks: 15, topBlame: 10}).once(time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(frame, "\x1b") {
				t.Errorf("frame has an ANSI escape:\n%q", frame)
			}

			r := want.Runtime
			if want.Keys != 3 || r.Target != 3 || r.LocksRegistered == 0 {
				t.Fatalf("/stats = %d keys, target %d, %d locks; want 3, 3, > 0", want.Keys, r.Target, r.LocksRegistered)
			}
			lines := []string{
				fmt.Sprintf("%d shards, %d keys, %s latches", want.Shards, want.Keys, want.LatchPolicy),
				fmt.Sprintf("target=%d load=%d (runq=%.1f os=%+d) sleeping=%d spinners=%d locks=%d ",
					r.Target, r.Load, r.RunQueue, r.OSExcess, r.Sleeping, r.Spinners, r.LocksRegistered),
				fmt.Sprintf("sampling[hold=1/%d blame=1/%d]", want.Sampling.Hold, want.Sampling.Blame),
				"P99 TREND",
			}
			if w := want.Wal; !durable {
				if w != nil || strings.Contains(frame, "wal:") {
					t.Errorf("volatile server: /stats wal = %+v, frame:\n%s", w, frame)
				}
			} else if w == nil || w.Appends != 3 {
				t.Fatalf("durable server: /stats wal = %+v, want 3 appends", w)
			} else {
				lines = append(lines, fmt.Sprintf("wal: durable=%d applied=%d segs=%d appends=%d syncs=%d  group[mean=%.1f p99=%d]",
					w.DurableLSN, w.AppliedLSN, w.Segments, w.Appends, w.Syncs, float64(w.GroupSize.MeanNs), w.GroupSize.P99Ns))
			}
			for _, l := range lines {
				if !strings.Contains(frame, l) {
					t.Errorf("frame lacks %q:\n%s", l, frame)
				}
			}
		})
	}
}

// serve starts rt and serves a handler over a fresh store and DB that
// registered with it, durable or not, until the test ends.
func serve(t *testing.T, rt *lcrt.Runtime, durable bool) *httptest.Server {
	t.Helper()
	rt.Start()
	t.Cleanup(rt.Stop)
	store := kv.New(kv.Options{Shards: 4, Runtime: rt})
	t.Cleanup(store.Close)
	var log *wal.Log
	if durable {
		var err error
		log, _, err = wal.Open(wal.Options{Dir: t.TempDir(), Runtime: rt}, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := log.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	db := oltp.New(store, oltp.Options{Runtime: rt, MaxRetries: oltp.DefaultMaxRetries, WAL: log})
	t.Cleanup(db.Close)
	srv := httptest.NewServer(server.NewHandler(store, db, rt, log))
	t.Cleanup(srv.Close)
	return srv
}

// contend runs n contended waits on h, each lasting about d: the first
// acquire attempt fails after d, the second succeeds.
func contend(h *lcrt.Handle, n int, d time.Duration) {
	for range n {
		tries := 0
		h.Wait(lcrt.Acquire{
			Try: func() bool {
				tries++
				if tries == 1 {
					time.Sleep(d)
					return false
				}
				return true
			},
			Free: func() bool { return false },
		})
	}
}

// frameRow is a lock's row of a frame: its fields, and whether it
// carries the convoy mark. ok is false when the frame has no row for
// the lock.
func frameRow(frame, lock string) (fields []string, convoy, ok bool) {
	for _, line := range strings.Split(frame, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && f[0] == lock {
			return f, len(f) > 7 && strings.HasPrefix(f[7], "!"), true
		}
	}
	return nil, false, false
}

// hotViewer registers one lock of the given name on a fresh runtime
// served over HTTP, and returns it with a viewer of that server and a
// render that fails the test on a read error.
func hotViewer(t *testing.T, name string) (*lcrt.Runtime, *lcrt.Handle, *viewer, func() string) {
	t.Helper()
	rt := lcrt.New(lcrt.Options{})
	srv := serve(t, rt, false)
	h := rt.Register(name)
	t.Cleanup(h.Close)
	h.SetPolicy(lcrt.ParkNever)
	v := &viewer{client: srv.Client(), base: srv.URL, topLocks: 1000, topBlame: 10}
	return rt, h, v, func() string {
		t.Helper()
		frame, err := v.render()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
}

// TestLockRowsAreTheInterval: a lock's row shows the waits between two
// reads of /stats, not since the server started. Its waits, p50 and p99
// are those of the difference of the lock's wait histogram across the
// two reads, and the first read adds nothing to the lock's trend.
func TestLockRowsAreTheInterval(t *testing.T) {
	_, hot, v, render := hotViewer(t, "lctop-hot")

	// Long waits before the first read: a cumulative view would show
	// them in the next frame's p99.
	contend(hot, 3, 20*time.Millisecond)
	render()
	before := hot.Stats().Wait
	contend(hot, 10, 100*time.Microsecond)
	after := hot.Stats().Wait
	frame := render()
	d := after.Sub(before)
	f, convoy, ok := frameRow(frame, "lctop-hot")
	if !ok {
		t.Fatalf("frame has no lctop-hot row:\n%s", frame)
	}
	if d.Count != 10 {
		t.Fatalf("the interval's histogram holds %d waits, want the 10 driven", d.Count)
	}
	if want := []string{fmt.Sprint(d.Count), fmtNs(d.Quantile(0.50)), fmtNs(d.Quantile(0.99))}; !slices.Equal(f[4:7], want) {
		t.Errorf("lctop-hot waits, p50, p99 = %v, want %v from the histogram difference:\n%s", f[4:7], want, frame)
	}
	if convoy {
		t.Errorf("convoy mark after one frame:\n%s", frame)
	}
	if p99s := v.locks["lctop-hot"].p99s; len(p99s) != 1 {
		t.Errorf("lctop-hot trend = %v after two reads, want one interval's p99", p99s)
	}
}

// TestLockRowsConvoyMark: a p99 over 10 ms for 3 consecutive frames, and
// only that, raises the convoy mark; a calm frame drops it and the
// count starts over. Long waits before the first read count for no
// frame.
func TestLockRowsConvoyMark(t *testing.T) {
	_, hot, _, render := hotViewer(t, "lctop-hot")

	contend(hot, 2, 20*time.Millisecond)
	render()
	for i, c := range []struct {
		waits  int
		convoy bool
	}{{2, false}, {2, false}, {2, true}, {2, true}, {0, false}, {2, false}} {
		contend(hot, c.waits, 20*time.Millisecond)
		frame := render()
		if _, convoy, _ := frameRow(frame, "lctop-hot"); convoy != c.convoy {
			t.Errorf("frame %d (%d waits of 20ms): convoy mark = %v, want %v:\n%s", i+1, c.waits, convoy, c.convoy, frame)
		}
	}
}

// TestLockRowsFoldAndEvict: locks sharing a name fold into one row; with
// one of them closed the row starts over from the lock left; and the
// last Close takes the row out of the frame and the viewer's state.
func TestLockRowsFoldAndEvict(t *testing.T) {
	rt, _, v, render := hotViewer(t, "lctop-hot")

	a, b := rt.Register("lctop-twin"), rt.Register("lctop-twin")
	a.SetPolicy(lcrt.ParkNever)
	b.SetPolicy(lcrt.ParkNever)
	render()
	contend(a, 3, 100*time.Microsecond)
	contend(b, 7, 100*time.Microsecond)
	frame := render()
	if f, _, ok := frameRow(frame, "lctop-twin"); !ok || f[4] != "10" {
		t.Errorf("lctop-twin row = %v, want one row with the 10 waits of both locks:\n%s", f, frame)
	}
	// With one of them closed the name's histogram shrinks: the row
	// starts over from the lock left, not from a negative difference.
	a.Close()
	frame = render()
	if f, _, ok := frameRow(frame, "lctop-twin"); !ok || f[4] != "7" {
		t.Errorf("lctop-twin row after one Close = %v, want the 7 waits of the lock left:\n%s", f, frame)
	}
	b.Close()
	frame = render()
	if _, _, ok := frameRow(frame, "lctop-twin"); ok {
		t.Errorf("closed lctop-twin still has a row:\n%s", frame)
	}
	if _, kept := v.locks["lctop-twin"]; kept {
		t.Error("closed lctop-twin still holds viewer state")
	}
}
