// Package server is lcserve's HTTP surface: the kv, /txn and /policy
// endpoints over one store, and the observability endpoints (/stats,
// /metrics, /trace, /debug/contention) over the load-control runtime
// that store's latches registered with. Stats is the /stats wire
// document; lctop decodes into it, so it has one declaration.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// txnRequest is the /txn wire format: an ordered list of operations
// executed as one strict-2PL transaction.
type txnRequest struct {
	Ops []txnOp `json:"ops"`
}

type txnOp struct {
	Op        string `json:"op"` // read | write | delete | read-partition
	Table     string `json:"table"`
	Key       string `json:"key"`
	Value     string `json:"value"`
	Partition int    `json:"partition"`
}

// txnOpResult aligns 1:1 with the request ops.
type txnOpResult struct {
	Value string  `json:"value,omitempty"`
	Found *bool   `json:"found,omitempty"`
	Rows  []kv.KV `json:"rows,omitempty"`
}

type txnResponse struct {
	Committed bool          `json:"committed"`
	Error     string        `json:"error,omitempty"`
	Results   []txnOpResult `json:"results,omitempty"`
}

// handleTxn executes one transaction via DB.RunCtx under the request's
// context (wait-die aborts are retried under the original timestamp;
// only terminal failures reach the client: an abort whose retry budget
// ran out as 409, anything else — a commit the log could not make
// durable — as 503, since retrying it fails the same way; a client that
// disconnects mid-wait cancels its own lock waits instead of queueing
// until timeout).
func handleTxn(db *oltp.DB, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req txnRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "empty transaction", http.StatusBadRequest)
		return
	}
	for _, op := range req.Ops {
		switch op.Op {
		case "read", "write", "delete":
			if op.Table == "" || op.Key == "" {
				http.Error(w, "read/write/delete need table and key", http.StatusBadRequest)
				return
			}
		case "read-partition":
			if op.Table == "" || op.Partition < 0 || op.Partition >= db.Store().Shards() {
				http.Error(w, "read-partition needs table and a valid partition", http.StatusBadRequest)
				return
			}
		default:
			http.Error(w, fmt.Sprintf("unknown op %q", op.Op), http.StatusBadRequest)
			return
		}
	}
	var results []txnOpResult
	err := db.RunCtx(r.Context(), func(t *oltp.Txn) error {
		results = results[:0] // a retry re-runs every op
		for _, op := range req.Ops {
			switch op.Op {
			case "read":
				v, ok, err := t.Read(op.Table, op.Key)
				if err != nil {
					return err
				}
				results = append(results, txnOpResult{Value: v, Found: &ok})
			case "write":
				if err := t.Write(op.Table, op.Key, op.Value); err != nil {
					return err
				}
				results = append(results, txnOpResult{})
			case "delete":
				if err := t.Delete(op.Table, op.Key); err != nil {
					return err
				}
				results = append(results, txnOpResult{})
			case "read-partition":
				rows, err := t.ReadPartition(op.Table, op.Partition)
				if err != nil {
					return err
				}
				results = append(results, txnOpResult{Rows: rows})
			}
		}
		return nil
	})
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		code := http.StatusConflict
		if !errors.Is(err, oltp.ErrAborted) {
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(txnResponse{Committed: false, Error: err.Error()})
		return
	}
	json.NewEncoder(w).Encode(txnResponse{Committed: true, Results: results})
}

// Stats is the GET /stats document.
type Stats struct {
	Shards      int    `json:"shards"`
	Keys        int    `json:"keys"`
	LatchPolicy string `json:"latch_policy"`
	LockEntries int    `json:"lock_entries"`
	// Sampling is the recorder's 1-in-N rates: holds and blame.
	Sampling     Sampling             `json:"sampling"`
	BlameDropped uint64               `json:"blame_dropped"`
	BlameTop     []obs.BlameEntry     `json:"blame_top"`
	Latches      lcrt.LockStats       `json:"latches"` // kv shard latches, summed
	Oltp         oltp.MetricsSnapshot `json:"oltp"`
	// Wal is null for a volatile server, so pollers distinguish "no
	// durability" from "durable but idle" without a probe.
	Wal *wal.Stats `json:"wal"`
	// Hists digests the latency histograms into p50/p99/p999: wait, hold
	// and park runtime-wide, commit and lock_wait from the oltp layer.
	// The full bucket vectors live in /metrics.
	Hists   map[string]obs.HistSummary `json:"hists"`
	Runtime lcrt.Snapshot              `json:"runtime"`
}

// Sampling is Stats.Sampling.
type Sampling struct {
	Hold  int `json:"hold"`
	Blame int `json:"blame"`
}

// metricsTopLocks caps the per-lock series /metrics exports; the rest
// is counted by the golc_metrics_locks_dropped gauge.
const metricsTopLocks = 8

// NewHandler builds the service mux for one store. rt is the
// load-control runtime the store's, the DB's and the log's latches
// registered with — the observability endpoints read it directly, so a
// handler built over a private runtime (as the tests do) reports its
// own runtime, not the Default one, and POST /policy flips its locks.
// walLog, when non-nil, adds the durability surface: the "wal" section
// of /stats and the wal_* families of /metrics.
func NewHandler(store *kv.Store, db *oltp.DB, rt *lcrt.Runtime, walLog *wal.Log) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/kv/")
		if key == "" {
			http.Error(w, "empty key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			v, ok := store.Get(key)
			if !ok {
				http.NotFound(w, r)
				return
			}
			io.WriteString(w, v)
		case http.MethodPut, http.MethodPost:
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
			if err != nil {
				// Oversized bodies must fail loudly, not store a
				// silently truncated value — but only size violations
				// get the 413; a dropped connection is the client's
				// error, not a size problem.
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					http.Error(w, "value too large (1MB max)", http.StatusRequestEntityTooLarge)
				} else {
					http.Error(w, "error reading body", http.StatusBadRequest)
				}
				return
			}
			store.Put(key, string(body))
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			if _, existed := store.Delete(key); !existed {
				http.NotFound(w, r)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/scan", func(w http.ResponseWriter, r *http.Request) {
		limit := 100
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				// kv.Scan treats limit <= 0 as unlimited; never expose
				// a whole-store dump to a request parameter.
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		for _, p := range store.Scan(r.URL.Query().Get("prefix"), limit) {
			fmt.Fprintf(w, "%s=%s\n", p.Key, p.Value)
		}
	})
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		handleTxn(db, w, r)
	})
	// The hot-swap lever: GET reports the current latch contention
	// policy; POST flips every latch in the process — kv shard latches,
	// the oltp lock-table stripes, and the wal's tail latch and
	// durability wait — to the named policy, in one pass over rt's
	// locks.
	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			fmt.Fprintf(w, "%s\n", store.Policy().Name())
		case http.MethodPost, http.MethodPut:
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256))
			if err != nil {
				http.Error(w, "error reading body", http.StatusBadRequest)
				return
			}
			name := strings.TrimSpace(string(body))
			p, err := golc.PolicyByName(name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rt.SetPolicy(p)
			fmt.Fprintf(w, "%s\n", p.Name())
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		snap := rt.Snapshot()
		rec := rt.Recorder()
		commit, lockWait := db.CommitLatency(), db.LockWaitHist()
		doc := Stats{
			Shards:       store.Shards(),
			Keys:         store.Len(),
			LatchPolicy:  store.Policy().Name(),
			LockEntries:  db.LockEntries(),
			Sampling:     Sampling{Hold: rec.HoldSampling(), Blame: rec.BlameSampling()},
			BlameDropped: rec.BlameDropped(),
			BlameTop:     rec.BlameTop(10),
			Latches:      store.LatchStats(),
			Oltp:         db.Metrics(),
			Hists: map[string]obs.HistSummary{
				"wait":      snap.WaitHist.Summary(),
				"hold":      snap.HoldHist.Summary(),
				"park":      snap.ParkHist.Summary(),
				"commit":    commit.Summary(),
				"lock_wait": lockWait.Summary(),
			},
			Runtime: snap,
		}
		if walLog != nil {
			ws := walLog.Stats()
			doc.Wal = &ws
		}
		writeJSON(w, doc)
	})
	// The contention blame profile: who-blocks-whom edges as a pprof
	// protobuf (loads in `go tool pprof`) or, with ?fmt=folded, as
	// folded stacks for flamegraph tooling.
	mux.HandleFunc("/debug/contention", func(w http.ResponseWriter, r *http.Request) {
		rec := rt.Recorder()
		edges := rec.BlameEdges()
		if r.URL.Query().Get("fmt") == "folded" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := obs.WriteBlameFolded(w, edges); err != nil {
				fmt.Fprintln(os.Stderr, "lcserve: /debug/contention:", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="contention.pb.gz"`)
		if err := obs.WriteBlameProfile(w, edges, int64(rec.BlameSampling())); err != nil {
			fmt.Fprintln(os.Stderr, "lcserve: /debug/contention:", err)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writeProm(w, store, db, walLog, rt); err != nil {
			// Headers are gone by now; all we can do is not pretend the
			// scrape succeeded.
			fmt.Fprintln(os.Stderr, "lcserve: /metrics:", err)
		}
	})
	// Flight-recorder dump: collect sec seconds of lock events (park,
	// wake, forced claim, policy swap, controller tick, txn aborts,
	// escalations ...) and return them as Chrome trace
	// JSON — load the file in Perfetto (ui.perfetto.dev) or
	// chrome://tracing. sec=0 skips the wait and dumps whatever the
	// bounded ring currently holds.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		sec := 1
		if s := r.URL.Query().Get("sec"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 || n > 60 {
				http.Error(w, "bad sec (want 0..60)", http.StatusBadRequest)
				return
			}
			sec = n
		}
		rec := rt.Recorder()
		var since int64
		if sec > 0 {
			since = rec.Now()
			select {
			case <-time.After(time.Duration(sec) * time.Second):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="golc-trace.json"`)
		if err := obs.WriteChromeTrace(w, []obs.TraceProc{
			{Pid: 1, Name: "golc runtime", Events: rec.Ring().Since(since)},
		}); err != nil {
			fmt.Fprintln(os.Stderr, "lcserve: /trace:", err)
		}
	})
	return mux
}

// writeJSON serves one response document, or a 500 if it does not
// marshal (a NaN in a float field is the only way these types can fail).
func writeJSON(w http.ResponseWriter, doc any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body.Bytes())
}

// writeProm renders the whole observability surface in Prometheus text
// exposition format 0.0.4: runtime counters and gauges, the global
// wait/hold/park latency histograms, per-lock histograms for the
// metricsTopLocks most contended locks, the oltp transaction counters plus
// its commit-latency and logical-lock-wait histograms, and — when the
// server is durable — the wal_* families. Buckets are log-scaled
// powers of two in seconds (see internal/golc/obs), except
// wal_group_commits whose unit is commits per fsync.
func writeProm(w io.Writer, store *kv.Store, db *oltp.DB, walLog *wal.Log, rt *lcrt.Runtime) error {
	pw := obs.NewPromWriter(w)
	snap := rt.Snapshot()

	pw.Counter("golc_controller_updates_total", "Controller ticks.", nil, snap.Updates)
	pw.Counter("golc_claims_total", "Sleep-slot claims (parks).", nil, snap.Claims)
	pw.Counter("golc_forced_claims_total", "Unconditional parks (the block policy and keyed waits).", nil, snap.ForcedClaims)
	wakes := []obs.Label{{Key: "kind", Value: "controller"}}
	pw.Counter("golc_wakes_total", "Parked-waiter wakes by path.", wakes, snap.ControllerWakes)
	wakes[0].Value = "unlock"
	pw.Counter("golc_wakes_total", "", wakes, snap.UnlockWakes)
	wakes[0].Value = "timeout"
	pw.Counter("golc_wakes_total", "", wakes, snap.TimeoutWakes)
	// A subset of kind="timeout", so its own family: as a kind, summing
	// the kinds would count it twice.
	pw.Counter("golc_timeout_wakes_free_total", "Timeout wakes whose waiter then found the lock free (a missed wake).", nil, snap.TimeoutWakesFree)
	pw.Counter("golc_claim_cancels_total", "Claims retired unused (lock freed before the park).", nil, snap.Cancels)
	pw.Counter("golc_claim_refusals_total", "Voluntary claims refused by the sleep target.", nil, snap.ClaimRefusals)
	pw.Gauge("golc_spinners", "Waiters spinning now.", nil, float64(snap.Spinners))
	pw.Gauge("golc_sleeping", "Waiters parked now.", nil, float64(snap.Sleeping))
	pw.Gauge("golc_spin_target", "Controller sleep target T: its maximum (1024) while the load is positive, load + sleeping otherwise.", nil, float64(snap.Target))
	pw.Gauge("golc_locks_registered", "Locks registered with the runtime.", nil, float64(snap.LocksRegistered))

	pw.Histogram("golc_wait_seconds", "Lock acquisition wait time (first failed acquire to grant), all locks.", nil, snap.WaitHist)
	pw.Histogram("golc_hold_seconds", "Sampled lock hold time (acquire to release), all locks.", nil, snap.HoldHist)
	pw.Histogram("golc_park_seconds", "Time waiters actually spent parked, claim to retirement.", nil, snap.ParkHist)

	// Per-lock series for the hottest locks only: one series per
	// registered lock would blow up scrape cardinality on stores with
	// hundreds of shards. Families stay grouped (all waits, then all
	// holds) as the text format requires. The truncation is visible:
	// golc_metrics_locks_dropped counts the contended locks the cutoff
	// hid this scrape.
	contended := snap.TopContended(-1)
	top := contended
	if len(top) > metricsTopLocks {
		top = top[:metricsTopLocks]
	}
	pw.Gauge("golc_metrics_locks_dropped", "Contended locks omitted from the per-lock series by the top-8 cutoff.",
		nil, float64(len(contended)-len(top)))
	for _, ls := range top {
		pw.Histogram("golc_lock_wait_seconds", "Per-lock acquisition wait time (top contended).",
			[]obs.Label{{Key: "lock", Value: ls.Name}}, ls.Wait)
	}
	for _, ls := range top {
		pw.Histogram("golc_lock_hold_seconds", "Per-lock sampled hold time (top contended).",
			[]obs.Label{{Key: "lock", Value: ls.Name}}, ls.Hold)
	}
	pw.Counter("golc_blame_samples_dropped_total", "Blame edges dropped because the matrix cell table was saturated.",
		nil, rt.Recorder().BlameDropped())

	m := db.Metrics()
	pw.Counter("oltp_begins_total", "Transactions begun.", nil, m.Begins)
	pw.Counter("oltp_commits_total", "Transactions committed.", nil, m.Commits)
	pw.Counter("oltp_aborts_total", "Transactions aborted (all causes).", nil, m.Aborts)
	pw.Counter("oltp_retries_total", "Run retries after kill orders.", nil, m.Retries)
	abortKind := []obs.Label{{Key: "kind", Value: "waitdie"}}
	pw.Counter("oltp_policy_aborts_total", "Lock-manager kill orders by cause.", abortKind, m.WaitDieAborts)
	abortKind[0].Value = "timeout"
	pw.Counter("oltp_policy_aborts_total", "", abortKind, m.TimeoutAborts)
	pw.Counter("oltp_escalations_total", "Record-to-partition lock escalations.", nil, m.Escalations)
	pw.Counter("oltp_lock_waits_total", "Logical lock requests that blocked.", nil, m.LockWaits)
	pw.Counter("oltp_latch_misses_total", "Lock-table latch TryLock misses (physical contention).", nil, m.LatchMisses)
	pw.Counter("oltp_ctx_cancels_total", "Logical lock waits ended by the caller's context (client gone, not a wait-die abort).", nil, m.CtxCancels)
	pw.Gauge("oltp_lock_entries", "Live lock-table entries.", nil, float64(db.LockEntries()))
	pw.Histogram("oltp_commit_seconds", "Committed-transaction latency, Run entry to commit.", nil, db.CommitLatency())
	pw.Histogram("oltp_lock_wait_seconds", "Blocked logical lock acquisition wait time.", nil, db.LockWaitHist())

	pw.Gauge("kv_keys", "Keys stored.", nil, float64(store.Len()))

	if walLog != nil {
		ws := walLog.Stats()
		pw.Counter("wal_appends_total", "Redo records staged on the log tail.", nil, ws.Appends)
		pw.Counter("wal_syncs_total", "Commit groups fsynced.", nil, ws.Syncs)
		pw.Counter("wal_bytes_written_total", "Bytes written to segment files.", nil, ws.BytesWritten)
		pw.Counter("wal_rotations_total", "Segment rotations.", nil, ws.Rotations)
		pw.Counter("wal_checkpoints_total", "Checkpoints written.", nil, ws.Checkpoints)
		pw.Gauge("wal_segments", "Live segment files.", nil, float64(ws.Segments))
		pw.Gauge("wal_durable_lsn", "Last LSN known fsynced.", nil, float64(ws.DurableLSN))
		pw.Gauge("wal_applied_lsn", "Applied floor: every record at or below it is in the store.", nil, float64(ws.AppliedLSN))
		wedged := 0.0
		if ws.Wedged != "" {
			wedged = 1
		}
		pw.Gauge("wal_wedged", "1 when a sticky I/O error has disabled the log.", nil, wedged)
		// Group size is a count-per-fsync distribution, not a latency:
		// RawHistogram skips the seconds conversion, so the le labels
		// read directly as commits per group.
		pw.RawHistogram("wal_group_commits", "Commits batched per fsync (unit: commits, not seconds).", nil, walLog.GroupSizeHist())
		pw.Histogram("wal_sync_seconds", "Group-commit write+fsync latency.", nil, walLog.SyncHist())
	}
	return pw.Err()
}
