package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
			rt.Start()
			t.Cleanup(rt.Stop)
			store := kv.New(kv.Options{Shards: 4, IndexStripes: 2, Runtime: rt})
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
			hist := lcrt.NewHistory(rt, lcrt.HistoryOptions{Interval: time.Millisecond})
			hist.Start()
			t.Cleanup(hist.Stop)
			srv := httptest.NewServer(server.NewHandler(store, db, rt, hist, log))
			t.Cleanup(srv.Close)

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
			for rt.Snapshot().Updates == 0 || len(hist.Records()) == 0 {
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
			frame, err := render(srv.Client(), srv.URL, 15, 10)
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
				fmt.Sprintf("sampling[hold=1/%d event=1/%d blame=1/%d]",
					want.Sampling.Hold, want.Sampling.Event, want.Sampling.Blame),
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
