// Command lcserve is the real load-controlled KV service: internal/kv
// served over HTTP, every shard and index-stripe latch governed by the
// single process-wide load-control runtime:
//
//	lcserve -addr :8080 -shards 16
//	curl -X PUT -d tier-1 localhost:8080/kv/user:0001
//	curl localhost:8080/kv/user:0001
//	curl 'localhost:8080/scan?prefix=user:&limit=10'
//	curl 'localhost:8080/lookup?value=tier-1'
//	curl localhost:8080/stats          # runtime + per-latch snapshot + histogram percentiles
//	curl localhost:8080/metrics        # Prometheus text format (histograms included)
//	curl 'localhost:8080/trace?sec=2'  # 2s flight-recorder dump, Chrome trace JSON (Perfetto)
//	curl localhost:8080/stats/history  # retained snapshot series: per-lock wait p50/p99, blame top-K, convoy flags
//	curl -o contention.pb.gz localhost:8080/debug/contention  # blame profile (go tool pprof contention.pb.gz)
//	curl 'localhost:8080/debug/contention?fmt=folded'         # folded stacks for flamegraph tooling
//	curl localhost:8080/policy         # current latch contention policy
//	curl -X POST -d lc localhost:8080/policy   # hot-swap every latch's policy
//
// With -pprof the standard net/http/pprof handlers mount under
// /debug/pprof/. The mutex and block profiles there stay empty until
// their samplers are on: -mutex-profile-fraction N calls
// runtime.SetMutexProfileFraction(N) (1 = every contention event,
// higher = 1-in-N sampling) and -block-profile-rate N calls
// runtime.SetBlockProfileRate(N) (nanoseconds threshold; 1 = every
// blocking event). Both samplers cost on hot paths — leave them off
// unless you are actively profiling, or use modest rates (e.g. 100).
// Note these profile Go's own sync primitives; golc latch waits live in
// the flight recorder (/metrics, /trace), not the runtime profiles.
//
// The /policy endpoint is the operator's overload lever: POST any
// registered golc contention policy name (spin, block, lc) and every
// shard, stripe, and lock-table latch flips to it live via SetPolicy —
// e.g. moving a service that was started with spin latches onto
// load-controlled waiting as multiprogramming climbs, without a
// restart.
//
// With -durable the service opens a write-ahead log (internal/wal) in
// -waldir before serving: recovery replays the checkpoint and redo
// tail into the store (torn tails truncated), every /txn commit then
// group-commits through the log before it is acknowledged, and a
// clean shutdown (SIGINT/SIGTERM) checkpoints so the next start
// replays a short tail. A kill -9 is recovered, not prevented. Note
// the durability boundary: /txn commits are logged; bare /kv PUTs
// write the store directly and stay volatile. POST /policy flips the
// log's durability-wait policy together with every latch, and /stats
// ("wal" section) plus /metrics (wal_* families, including the
// commits-per-fsync group-size histogram) expose the log.
//
//	lcserve -durable -waldir ./wal
//
// The /txn endpoint executes a multi-operation transaction through the
// internal/oltp layer (strict 2PL on the hierarchical lock manager,
// wait-die retries included):
//
//	curl -X POST localhost:8080/txn -d '{"ops":[
//	  {"op":"read","table":"acct","key":"alice"},
//	  {"op":"write","table":"acct","key":"alice","value":"100"}]}'
//
// With -loadgen -target URL the binary is instead a concurrent HTTP
// client aimed at an lcserve that is already running — the way to put
// real contention (blame edges, wait histograms, history trends) into
// a server being watched with lctop or scraped in CI:
//
//	lcserve -loadgen -target http://localhost:8080 -conns 64 -duration 2s
//
// Numbers come from lcperf (bash benchmark/run.sh); the lc-versus-spin
// demonstration on one lock is examples/quickstart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "serve address")
		shards   = flag.Int("shards", 16, "primary shards")
		stripes  = flag.Int("stripes", 8, "secondary-index stripes")
		mode     = flag.String("mode", "lc", "latch contention policy, any registered one: spin, block, lc")
		policyFl = flag.String("policy", "waitdie", "deadlock policy for /txn transactions: waitdie or detect")
		loadgen  = flag.Bool("loadgen", false, "be an HTTP load client for the running lcserve at -target, then exit")
		target   = flag.String("target", "", "with -loadgen: base URL of the lcserve to drive (e.g. http://localhost:8080)")
		conns    = flag.Int("conns", 64, "loadgen client goroutines")
		duration = flag.Duration("duration", 2*time.Second, "loadgen run time")
		keys     = flag.Int("keys", 512, "loadgen keyspace size")
		pprofFl  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		mutexFr  = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction rate for the pprof mutex profile (0: off, 1: every event)")
		blockRt  = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate threshold in ns for the pprof block profile (0: off, 1: every event)")
		holdSmp  = flag.Int("hold-sampling", obs.DefaultHoldSampling, "record 1-in-N lock holds (rounded up to a power of two; 1: every hold)")
		eventSmp = flag.Int("event-sampling", obs.DefaultEventSampling, "keep 1-in-N flight-recorder events (1: every event)")
		blameSmp = flag.Int("blame-sampling", obs.DefaultBlameSampling, "blame-sample 1-in-N contended acquisitions (rounded up to a power of two; 1: every one)")
		mTop     = flag.Int("metrics-top", 8, "per-lock /metrics series cutoff: export only the N most contended locks (golc_metrics_locks_dropped counts the rest)")
		histIv   = flag.Duration("history-interval", time.Second, "/stats/history snapshot cadence")
		histKeep = flag.Duration("history-retention", 5*time.Minute, "/stats/history retention window")
		durable  = flag.Bool("durable", false, "write-ahead log durability: recover the store from -waldir on start, group-commit every /txn through it, checkpoint on clean shutdown")
		walDir   = flag.String("waldir", "wal", "with -durable: the log directory (segments + checkpoint)")
		walSeg   = flag.Int64("wal-segment-bytes", 0, "with -durable: segment rotation threshold in bytes (0: 4MiB)")
	)
	flag.Parse()

	// Profile samplers are process-wide and independent of -pprof (the
	// profiles are also reachable through a debugger), but they only pay
	// off together.
	if *mutexFr > 0 {
		runtime.SetMutexProfileFraction(*mutexFr)
	}
	if *blockRt > 0 {
		runtime.SetBlockProfileRate(*blockRt)
	}

	if *loadgen {
		// Shell loops around curl cannot load a server this way: process
		// spawn costs milliseconds while the conflict windows last
		// microseconds.
		if *target == "" {
			fmt.Fprintln(os.Stderr, "lcserve: -loadgen needs -target URL (a running lcserve). "+
				"For the lc-vs-spin demonstration run `go run ./examples/quickstart`; "+
				"for measurements run `bash benchmark/run.sh`.")
			os.Exit(2)
		}
		driveTarget(strings.TrimRight(*target, "/"), *conns, *duration, *keys)
		return
	}

	lockPolicy, err := golc.PolicyByName(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcserve:", err)
		os.Exit(2)
	}
	policy, err := oltp.NewPolicy(*policyFl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	store := kv.New(kv.Options{Shards: *shards, IndexStripes: *stripes, Policy: lockPolicy})
	// Durability: the WAL must open against the store while it is still
	// empty — recovery seeds it from the checkpoint and replays the redo
	// tail — and before the DB exists, so every /txn commit from the
	// first request on runs the group-commit protocol.
	var walLog *wal.Log
	if *durable {
		var rs wal.RecoveryStats
		walLog, rs, err = wal.Open(wal.Options{
			Dir: *walDir, SegmentBytes: *walSeg, Policy: lockPolicy,
		}, store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcserve: wal:", err)
			os.Exit(1)
		}
		fmt.Printf("lcserve: wal recovery: checkpoint lsn=%d (%d keys), %d segment(s) scanned, "+
			"%d record(s)/%d write(s) replayed, %d torn byte(s) truncated, %d segment(s) dropped, max lsn=%d\n",
			rs.CheckpointLSN, rs.CheckpointKeys, rs.SegmentsScanned,
			rs.RecordsReplayed, rs.WritesReplayed, rs.TornBytes, rs.DroppedSegments, rs.MaxLSN)
	}
	db := oltp.New(store, oltp.Options{MaxRetries: oltp.DefaultMaxRetries, DeadlockPolicy: policy, WAL: walLog})
	durability := "volatile"
	if walLog != nil {
		durability = "durable, wal at " + *walDir
	}
	fmt.Printf("lcserve: serving %d-shard kv (%s latches, %s deadlock policy, %s) on %s\n",
		store.Shards(), store.Policy().Name(), db.PolicyName(), durability, *addr)
	// Serve mode registers every latch with the process-wide runtime
	// (kv.Options.Runtime nil), so that is the runtime the handler's
	// stats/metrics/trace endpoints observe. The sampling flags take
	// effect on its recorder before any traffic arrives.
	rt := lcrt.Default()
	rec := rt.Recorder()
	rec.SetHoldSampling(*holdSmp)
	rec.SetEventSampling(*eventSmp)
	rec.SetBlameSampling(*blameSmp)
	hist := lcrt.NewHistory(rt, lcrt.HistoryOptions{Interval: *histIv, Retention: *histKeep})
	hist.Start()
	defer hist.Stop()
	h := newHandler(store, db, rt, handlerConfig{
		withPprof:  *pprofFl,
		metricsTop: *mTop,
		history:    hist,
		wal:        walLog,
	})
	// Clean shutdown matters once there is a log: stop accepting
	// requests, checkpoint (so the next start replays a short tail),
	// and close the log through one final group commit. A kill -9 is
	// also fine — that is what recovery is for — it just replays more.
	srv := &http.Server{Addr: *addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("lcserve: %v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		if walLog != nil {
			if lsn, err := walLog.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "lcserve: wal checkpoint:", err)
			} else {
				fmt.Printf("lcserve: wal checkpoint at lsn %d\n", lsn)
			}
			if err := walLog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lcserve: wal close:", err)
				os.Exit(1)
			}
		}
	}
}

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
// only terminal failures reach the client, as 409; a client that
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
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(txnResponse{Committed: false, Error: err.Error()})
		return
	}
	json.NewEncoder(w).Encode(txnResponse{Committed: true, Results: results})
}

// handlerConfig tunes the observability surface of a handler.
type handlerConfig struct {
	// withPprof mounts net/http/pprof under /debug/pprof/.
	withPprof bool
	// metricsTop caps the per-lock series /metrics exports (0: the
	// historical default of 8); the remainder is counted by the
	// golc_metrics_locks_dropped gauge.
	metricsTop int
	// history, when non-nil, feeds /stats/history. With it nil the
	// endpoint serves an empty series rather than 404ing, so pollers
	// need no special case.
	history *lcrt.History
	// wal, when non-nil, adds the durability surface: a "wal" section
	// in /stats, wal_* families in /metrics, and POST /policy flips the
	// log's durability-wait policy along with every latch.
	wal *wal.Log
}

func (c handlerConfig) topN() int {
	if c.metricsTop <= 0 {
		return 8
	}
	return c.metricsTop
}

// newHandler builds the service mux for one store. rt is the
// load-control runtime the store's latches registered with — the
// observability endpoints (/stats, /metrics, /trace) read it directly,
// so a handler built over a private runtime (as the tests do) reports
// its own runtime, not the Default one.
func newHandler(store *kv.Store, db *oltp.DB, rt *lcrt.Runtime, cfg handlerConfig) http.Handler {
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
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		for _, k := range store.Lookup(r.URL.Query().Get("value")) {
			fmt.Fprintln(w, k)
		}
	})
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		handleTxn(db, w, r)
	})
	// The hot-swap lever: GET reports the current latch contention
	// policy; POST flips every latch in the process — kv shards and
	// stripes plus the oltp lock-table stripes — to the named policy.
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
			store.SetPolicy(p)
			db.SetLatchPolicy(p)
			if cfg.wal != nil {
				// The durability-wait seam swaps with the latches: the
				// fsync convoy is load-controlled (or not) by the same
				// operator action.
				cfg.wal.SetPolicy(p)
			}
			fmt.Fprintf(w, "%s\n", p.Name())
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := rt.Snapshot()
		rec := rt.Recorder()
		latches, err := json.Marshal(store.LatchStats())
		if err != nil {
			latches = []byte("null")
		}
		oltpStats, err := json.Marshal(db.Metrics())
		if err != nil {
			oltpStats = []byte("null")
		}
		hists, err := json.Marshal(histSummaries(&snap, db))
		if err != nil {
			hists = []byte("null")
		}
		blameTop, err := json.Marshal(rec.BlameTop(10))
		if err != nil {
			blameTop = []byte("null")
		}
		// "wal" is null for a volatile server, so pollers distinguish
		// "no durability" from "durable but idle" without a probe.
		walStats := []byte("null")
		if cfg.wal != nil {
			if b, err := json.Marshal(cfg.wal.Stats()); err == nil {
				walStats = b
			}
		}
		fmt.Fprintf(w, `{"shards":%d,"keys":%d,"latch_policy":%q,"policy":%q,"lock_entries":%d,`+
			`"sampling":{"hold":%d,"event":%d,"blame":%d},"blame_dropped":%d,"blame_top":%s,`+
			`"latches":%s,"oltp":%s,"wal":%s,"hists":%s,"top_locks":%s,"runtime":%s}`+"\n",
			store.Shards(), store.Len(), store.Policy().Name(), db.PolicyName(),
			db.LockEntries(),
			rec.HoldSampling(), rec.EventSampling(), rec.BlameSampling(),
			rec.BlameDropped(), blameTop,
			latches, oltpStats, walStats, hists,
			topLocksJSON(snap), snapshotJSON(snap))
	})
	// Blame time series: the bounded ring of periodic snapshots — the
	// feed lctop (and eventually a policy controller) polls. ?since=N
	// (unix ns) skips records the poller already has.
	mux.HandleFunc("/stats/history", func(w http.ResponseWriter, r *http.Request) {
		var since int64
		if s := r.URL.Query().Get("since"); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since (want unix nanoseconds)", http.StatusBadRequest)
				return
			}
			since = n
		}
		recs := []lcrt.HistoryRecord{}
		var opts lcrt.HistoryOptions
		if cfg.history != nil {
			recs = cfg.history.Since(since)
			opts = cfg.history.Options()
		}
		w.Header().Set("Content-Type", "application/json")
		resp := struct {
			IntervalNs  int64                `json:"interval_ns"`
			ConvoyP99Ns int64                `json:"convoy_p99_ns"`
			ConvoyTicks int                  `json:"convoy_ticks"`
			Records     []lcrt.HistoryRecord `json:"records"`
		}{int64(opts.Interval), int64(opts.ConvoyP99), opts.ConvoyTicks, recs}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			fmt.Fprintln(os.Stderr, "lcserve: /stats/history:", err)
		}
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
		if err := writeProm(w, store, db, cfg.wal, rt, cfg.topN()); err != nil {
			// Headers are gone by now; all we can do is not pretend the
			// scrape succeeded.
			fmt.Fprintln(os.Stderr, "lcserve: /metrics:", err)
		}
	})
	// Flight-recorder dump: collect sec seconds of lock events (park,
	// wake, forced claim, policy swap, controller tick, txn aborts,
	// deadlock victims, escalations ...) and return them as Chrome trace
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
	if cfg.withPprof {
		// net/http/pprof registers only on http.DefaultServeMux, which
		// this server never installs — mount its handlers explicitly.
		// The mutex/block profiles need their samplers switched on; see
		// the package comment (-mutex-profile-fraction,
		// -block-profile-rate).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// histSummaries digests every latency histogram the service keeps into
// p50/p99/p999 summaries: runtime-wide wait/hold/park plus the oltp
// layer's commit latency and logical-lock wait time. This is the
// at-a-glance answer /stats owes an operator; the full bucket vectors
// live in /metrics.
func histSummaries(snap *lcrt.Snapshot, db *oltp.DB) map[string]obs.HistSummary {
	commit, lockWait := db.CommitLatency(), db.LockWaitHist()
	return map[string]obs.HistSummary{
		"wait":      snap.WaitHist.Summary(),
		"hold":      snap.HoldHist.Summary(),
		"park":      snap.ParkHist.Summary(),
		"commit":    commit.Summary(),
		"lock_wait": lockWait.Summary(),
	}
}

// topLocksJSON renders the N most contended locks of the handler's
// runtime (parks + unlock wakes, per runtime.Snapshot.TopContended —
// ties break by name, so the order is deterministic) so OLTP hot
// partitions show up by name instead of drowning in the aggregate
// totals. Every policy registers its latches now, so this is meaningful
// under spin and block too.
func topLocksJSON(snap lcrt.Snapshot) string {
	b, err := json.Marshal(snap.TopContended(5))
	if err != nil {
		return "null"
	}
	return string(b)
}

// snapshotJSON renders the runtime snapshot for /stats: the snapshot
// already taken from the runtime serving this handler's latches. On
// marshal failure the field degrades to an explicit JSON null rather
// than corrupting the /stats document.
func snapshotJSON(snap lcrt.Snapshot) string {
	b, err := json.Marshal(snap)
	if err != nil {
		return "null"
	}
	return string(b)
}

// writeProm renders the whole observability surface in Prometheus text
// exposition format 0.0.4: runtime counters and gauges, the global
// wait/hold/park latency histograms, per-lock histograms for the
// topN most contended locks, the oltp transaction counters plus
// its commit-latency and logical-lock-wait histograms, and — when the
// server is durable — the wal_* families. Buckets are log-scaled
// powers of two in seconds (see internal/golc/obs), except
// wal_group_commits whose unit is commits per fsync.
func writeProm(w io.Writer, store *kv.Store, db *oltp.DB, walLog *wal.Log, rt *lcrt.Runtime, topN int) error {
	pw := obs.NewPromWriter(w)
	snap := rt.Snapshot()

	pw.Counter("golc_controller_updates_total", "Controller ticks.", nil, snap.Updates)
	pw.Counter("golc_claims_total", "Sleep-slot claims (parks).", nil, snap.Claims)
	pw.Counter("golc_forced_claims_total", "Unconditional parks (blocking policies).", nil, snap.ForcedClaims)
	wakes := []obs.Label{{Key: "kind", Value: "controller"}}
	pw.Counter("golc_wakes_total", "Parked-waiter wakes by path.", wakes, snap.ControllerWakes)
	wakes[0].Value = "unlock"
	pw.Counter("golc_wakes_total", "", wakes, snap.UnlockWakes)
	wakes[0].Value = "timeout"
	pw.Counter("golc_wakes_total", "", wakes, snap.TimeoutWakes)
	pw.Counter("golc_ctx_cancels_total", "Parks abandoned by context cancellation.", nil, snap.CtxCancels)
	pw.Counter("golc_claim_cancels_total", "Claims retired unused (lock freed before the park).", nil, snap.Cancels)
	pw.Counter("golc_slot_rejects_total", "Claims refused because no sleep slot was free.", nil, snap.SlotRejects)
	pw.Gauge("golc_spinners", "Waiters spinning now.", nil, float64(snap.Spinners))
	pw.Gauge("golc_sleeping", "Waiters parked now.", nil, float64(snap.Sleeping))
	pw.Gauge("golc_spin_target", "Controller sleep target T.", nil, float64(snap.Target))
	pw.Gauge("golc_locks_registered", "Locks registered with the runtime.", nil, float64(snap.LocksRegistered))

	pw.Histogram("golc_wait_seconds", "Lock acquisition wait time (first failed acquire to grant), all locks.", nil, snap.WaitHist)
	pw.Histogram("golc_hold_seconds", "Sampled lock hold time (acquire to release), all locks.", nil, snap.HoldHist)
	pw.Histogram("golc_park_seconds", "Time waiters actually spent asleep in the slot pool.", nil, snap.ParkHist)

	// Per-lock series for the hottest locks only: one series per
	// registered lock would blow up scrape cardinality on stores with
	// hundreds of shards. Families stay grouped (all waits, then all
	// holds) as the text format requires. The truncation is visible:
	// golc_metrics_locks_dropped counts the contended locks the cutoff
	// hid this scrape (-metrics-top raises it).
	contended := snap.TopContended(-1)
	top := contended
	if len(top) > topN {
		top = top[:topN]
	}
	pw.Gauge("golc_metrics_locks_dropped", "Contended locks omitted from the per-lock series by the -metrics-top cutoff.",
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
	abortKind[0].Value = "deadlock"
	pw.Counter("oltp_policy_aborts_total", "", abortKind, m.DetectedAborts)
	abortKind[0].Value = "timeout"
	pw.Counter("oltp_policy_aborts_total", "", abortKind, m.TimeoutAborts)
	pw.Counter("oltp_escalations_total", "Record-to-partition lock escalations.", nil, m.Escalations)
	pw.Counter("oltp_lock_waits_total", "Logical lock requests that blocked.", nil, m.LockWaits)
	pw.Counter("oltp_latch_misses_total", "Lock-table latch TryLock misses (physical contention).", nil, m.LatchMisses)
	pw.Counter("oltp_ctx_cancels_total", "Logical lock waits ended by the caller's context (client gone, not a deadlock victim).", nil, m.CtxCancels)
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

// driveTarget aims conns client goroutines at a running lcserve for
// duration: the loadgen kv op mix plus a slice of deliberately
// conflicting multi-op transactions on a two-key hot set, so the
// target's shard latches AND its logical lock manager both see real
// concurrent contention — which is what fills the blame matrix, the
// wait histograms, and the history series an operator (or CI) then
// reads back.
func driveTarget(base string, conns int, duration time.Duration, keys int) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
	}}
	const txnBody = `{"ops":[{"op":"read","table":"hot","key":"h1"},` +
		`{"op":"write","table":"hot","key":"h1","value":"x"},` +
		`{"op":"write","table":"hot","key":"h2","value":"x"}]}`
	fmt.Printf("lcserve loadgen: driving %s with %d client goroutines for %v\n",
		base, conns, duration)
	var ops, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ok := false
				if i%4 == 3 {
					// A wait-die loser answers 409: the server worked,
					// the conflict is the point — not an error.
					resp, err := client.Post(base+"/txn", "application/json", strings.NewReader(txnBody))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						ok = resp.StatusCode < 500
					}
				} else {
					ok = httpOp(client, base, worker, i, keys)
				}
				if ok {
					ops.Add(1)
				} else {
					errs.Add(1)
				}
			}
		}(w)
	}
	t0 := time.Now()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)
	fmt.Printf("loadgen -target: %.0f ops/s (%d ops, %d errors, %v)\n",
		float64(ops.Load())/elapsed.Seconds(), ops.Load(), errs.Load(), elapsed.Round(time.Millisecond))
	if errs.Load() > ops.Load()/10 {
		fmt.Fprintln(os.Stderr, "loadgen -target: error rate over 10%")
		os.Exit(1)
	}
}

func keyName(i int) string { return fmt.Sprintf("user:%05d", i) }

// opKind picks the operation mix: 60% get, 25% put, 10% lookup, 5% scan.
func opKind(worker, i int) int {
	x := (worker*7919 + i) % 20
	switch {
	case x < 12:
		return 0 // get
	case x < 17:
		return 1 // put
	case x < 19:
		return 2 // lookup
	default:
		return 3 // scan
	}
}

// httpOp issues one request and reports whether it completed with a
// non-5xx status.
func httpOp(client *http.Client, base string, worker, i, keys int) bool {
	key := keyName((worker*31 + i*17) % keys)
	var resp *http.Response
	var err error
	switch opKind(worker, i) {
	case 0:
		resp, err = client.Get(base + "/kv/" + key)
	case 1:
		req, _ := http.NewRequest(http.MethodPut, base+"/kv/"+key,
			strings.NewReader(fmt.Sprintf("tier-%d", i%16)))
		resp, err = client.Do(req)
	case 2:
		resp, err = client.Get(base + "/lookup?value=" + fmt.Sprintf("tier-%d", i%16))
	default:
		resp, err = client.Get(base + "/scan?prefix=user:0&limit=50")
	}
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 500
}
