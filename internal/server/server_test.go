package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// testServer is NewHandler over a fresh store, DB and (when durable) a
// write-ahead log in a temp directory, all on one private runtime.
type testServer struct {
	store *kv.Store
	db    *oltp.DB
	log   *wal.Log // nil when volatile
	h     http.Handler
}

func newTestServer(t *testing.T, durable bool) *testServer {
	t.Helper()
	rt := lcrt.New(lcrt.Options{Interval: time.Millisecond})
	rt.Start()
	t.Cleanup(rt.Stop)
	s := &testServer{store: kv.New(kv.Options{Shards: 4, IndexStripes: 2, Runtime: rt})}
	t.Cleanup(s.store.Close)
	if durable {
		var err error
		s.log, _, err = wal.Open(wal.Options{Dir: t.TempDir(), Runtime: rt}, s.store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := s.log.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	s.db = oltp.New(s.store, oltp.Options{Runtime: rt, MaxRetries: oltp.DefaultMaxRetries, WAL: s.log})
	t.Cleanup(s.db.Close)
	s.h = NewHandler(s.store, s.db, rt, nil, s.log)
	return s
}

// do serves one request and returns the status and body.
func (s *testServer) do(method, url, body string) (int, string) {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(method, url, strings.NewReader(body)))
	return w.Code, w.Body.String()
}

func (s *testServer) want(t *testing.T, method, url, body string, code int) string {
	t.Helper()
	got, out := s.do(method, url, body)
	if got != code {
		t.Fatalf("%s %s = %d, want %d (body %q)", method, url, got, code, out)
	}
	return out
}

func TestTxn(t *testing.T) {
	s := newTestServer(t, false)
	out := s.want(t, "POST", "/txn", `{"ops":[
		{"op":"write","table":"acct","key":"alice","value":"100"},
		{"op":"read","table":"acct","key":"alice"},
		{"op":"read","table":"acct","key":"bob"}]}`, 200)
	var resp txnResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Committed || len(resp.Results) != 3 {
		t.Fatalf("response = %s", out)
	}
	if r := resp.Results[1]; r.Value != "100" || r.Found == nil || !*r.Found {
		t.Fatalf("read own write = %s", out)
	}
	if r := resp.Results[2]; r.Found == nil || *r.Found {
		t.Fatalf("read of a missing key = %s", out)
	}
	// Read back in a second transaction: the first one's write committed.
	out = s.want(t, "POST", "/txn", `{"ops":[{"op":"read","table":"acct","key":"alice"}]}`, 200)
	if !strings.Contains(out, `"value":"100"`) {
		t.Fatalf("read-back = %s", out)
	}

	for name, body := range map[string]string{
		"unknown op":    `{"ops":[{"op":"upsert","table":"acct","key":"a"}]}`,
		"empty ops":     `{"ops":[]}`,
		"missing key":   `{"ops":[{"op":"read","table":"acct"}]}`,
		"bad partition": `{"ops":[{"op":"read-partition","table":"acct","partition":4}]}`,
		"not json":      `{`,
	} {
		if code, out := s.do("POST", "/txn", body); code != 400 {
			t.Errorf("%s: %d (%q), want 400", name, code, out)
		}
	}
	s.want(t, "GET", "/txn", "", 405)
}

func TestKVAndScanLimits(t *testing.T) {
	s := newTestServer(t, false)
	s.want(t, "PUT", "/kv/k", "v", 204)
	if out := s.want(t, "GET", "/kv/k", "", 200); out != "v" {
		t.Fatalf("GET /kv/k = %q", out)
	}
	s.want(t, "PUT", "/kv/big", strings.Repeat("x", 1<<20+1), 413)
	if _, ok := s.store.Get("big"); ok {
		t.Fatal("an oversized value was stored")
	}
	s.want(t, "PUT", "/kv/", "v", 400)
	s.want(t, "PATCH", "/kv/k", "v", 405)
	s.want(t, "GET", "/scan?limit=0", "", 400)
	s.want(t, "GET", "/scan?limit=x", "", 400)
	if out := s.want(t, "GET", "/scan?prefix=k&limit=1", "", 200); out != "k=v\n" {
		t.Fatalf("scan = %q", out)
	}
	s.want(t, "DELETE", "/kv/k", "", 204)
	s.want(t, "DELETE", "/kv/k", "", 404)
}

func TestPolicyHotSwap(t *testing.T) {
	s := newTestServer(t, true)
	if out := s.want(t, "GET", "/policy", "", 200); out != "lc\n" {
		t.Fatalf("initial policy = %q", out)
	}
	s.want(t, "POST", "/policy", "block\n", 200)
	if got := s.store.Policy().Name(); got != "block" {
		t.Errorf("store policy = %q", got)
	}
	if got := s.db.LatchPolicyName(); got != "block" {
		t.Errorf("lock-table latch policy = %q", got)
	}
	if got := s.log.Policy().Name(); got != "block" {
		t.Errorf("wal policy = %q", got)
	}
	s.want(t, "POST", "/policy", "no-such-policy", 400)
	if got := s.store.Policy(); got != golc.Block {
		t.Errorf("a refused swap changed the policy to %q", got.Name())
	}
	s.want(t, "DELETE", "/policy", "", 405)
}

// TestStatsShape pins the /stats document, section by section, to what
// its readers decode: benchmark/http.go's serverStats, which declares
// its slice again by hand (lcperf builds from its own module), and the
// fields lctop prints.
func TestStatsShape(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			s := newTestServer(t, durable)
			s.want(t, "POST", "/txn", `{"ops":[{"op":"write","table":"acct","key":"a","value":"1"}]}`, 200)
			var doc map[string]json.RawMessage
			if err := json.Unmarshal([]byte(s.want(t, "GET", "/stats", "", 200)), &doc); err != nil {
				t.Fatal(err)
			}
			section := func(key string, into any) {
				t.Helper()
				raw, ok := doc[key]
				if !ok {
					t.Fatalf("/stats has no %q", key)
				}
				if err := json.Unmarshal(raw, into); err != nil {
					t.Fatalf("/stats %q: %v", key, err)
				}
			}

			// serverStats (lcperf).
			var lockEntries int
			section("lock_entries", &lockEntries)
			var latches lcrt.LockStats
			if section("latches", &latches); latches.Name != "kv/all" {
				t.Errorf("latches = %+v", latches)
			}
			var m oltp.MetricsSnapshot
			if section("oltp", &m); m.Commits != 1 {
				t.Errorf("oltp = %+v, want 1 commit", m)
			}
			var hists map[string]obs.HistSummary
			section("hists", &hists)
			if _, ok := hists["lock_wait"]; !ok {
				t.Errorf("hists has no lock_wait: %v", hists)
			}
			var snap lcrt.Snapshot
			if section("runtime", &snap); snap.LocksRegistered == 0 || len(snap.Locks) != snap.LocksRegistered {
				t.Errorf("runtime registers %d locks, lists %d", snap.LocksRegistered, len(snap.Locks))
			}
			if !durable {
				if string(doc["wal"]) != "null" {
					t.Errorf("volatile wal = %s, want null", doc["wal"])
				}
			} else {
				var ws wal.Stats
				if section("wal", &ws); ws.Appends != 1 || ws.DurableLSN != 1 {
					t.Errorf("wal = %+v, want the one commit appended and durable", ws)
				}
			}

			// lctop: the rest of what it reads, and the
			// runtime fields it names one by one.
			var shards, keys int
			section("shards", &shards)
			section("keys", &keys)
			if shards != 4 || keys != 1 {
				t.Errorf("shards=%d keys=%d", shards, keys)
			}
			var latchPolicy string
			if section("latch_policy", &latchPolicy); latchPolicy != "lc" {
				t.Errorf("latch_policy = %q", latchPolicy)
			}
			var sampling map[string]int
			section("sampling", &sampling)
			for _, k := range []string{"hold", "event", "blame"} {
				if sampling[k] <= 0 {
					t.Errorf("sampling = %v", sampling)
				}
			}
			var blameTop []obs.BlameEntry
			section("blame_top", &blameTop)
			var rtFields map[string]json.RawMessage
			section("runtime", &rtFields)
			for _, k := range []string{"Updates", "Claims", "ControllerWakes", "TimeoutWakes", "UnlockWakes",
				"Spinners", "Sleeping", "Target", "LocksRegistered", "RunQueue", "OSExcess", "Load"} {
				if _, ok := rtFields[k]; !ok {
					t.Errorf("runtime has no %q", k)
				}
			}
		})
	}
}

// TestMetricsHistograms: every histogram series in /metrics has its le
// labels ascending, its buckets cumulative, and _count equal to the
// +Inf bucket.
func TestMetricsHistograms(t *testing.T) {
	s := newTestServer(t, true)
	for i := 0; i < 8; i++ {
		s.want(t, "POST", "/txn", fmt.Sprintf(`{"ops":[{"op":"write","table":"t","key":"k%d","value":"v"}]}`, i), 200)
	}
	type series struct {
		lastLe, lastVal, inf float64
		sawInf               bool
	}
	buckets := map[string]*series{}
	counts := map[string]float64{}
	for _, line := range strings.Split(s.want(t, "GET", "/metrics", "", 200), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			// le is the last label the writer emits.
			i := strings.LastIndex(labels, `le="`)
			if i < 0 {
				t.Fatalf("bucket without le: %q", line)
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+4:], `"`), 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			key := strings.TrimSuffix(name, "_bucket") + "{" + strings.TrimSuffix(labels[:i], ",") + "}"
			b := buckets[key]
			if b == nil {
				b = &series{lastLe: math.Inf(-1)}
				buckets[key] = b
			}
			if le <= b.lastLe || val < b.lastVal {
				t.Errorf("%s: bucket le=%v value=%v after le=%v value=%v", key, le, val, b.lastLe, b.lastVal)
			}
			b.lastLe, b.lastVal = le, val
			if math.IsInf(le, 1) {
				b.sawInf, b.inf = true, val
			}
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")+"{"+labels+"}"] = val
		}
	}
	for _, want := range []string{"golc_wait_seconds{}", "oltp_commit_seconds{}", "wal_group_commits{}", "wal_sync_seconds{}"} {
		if buckets[want] == nil {
			t.Errorf("no %s histogram in /metrics", want)
		}
	}
	for key, b := range buckets {
		if c, ok := counts[key]; !b.sawInf || !ok || c != b.inf {
			t.Errorf("%s: +Inf bucket %v (seen %v), _count %v (seen %v)", key, b.inf, b.sawInf, c, ok)
		}
	}
	if c := counts["oltp_commit_seconds{}"]; c != 8 {
		t.Errorf("oltp_commit_seconds_count = %v, want 8", c)
	}
}

func TestTraceAndDebugVars(t *testing.T) {
	s := newTestServer(t, false)
	s.want(t, "POST", "/policy", "spin", 200) // a policy-swap event for the ring
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(s.want(t, "GET", "/trace?sec=0", "", 200)), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace?sec=0 has no traceEvents")
	}
	s.want(t, "GET", "/trace?sec=61", "", 400)
	s.want(t, "GET", "/trace?sec=-1", "", 400)
	s.want(t, "GET", "/debug/vars", "", 404)
	s.want(t, "GET", "/debug/pprof/", "", 404) // mounted only with -pprof
}
