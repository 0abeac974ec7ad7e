// Command lcserve is the real load-controlled KV service: internal/kv
// served over HTTP, every shard latch governed by the single
// process-wide load-control runtime:
//
//	lcserve -addr :8080 -shards 16
//	curl -X PUT -d tier-1 localhost:8080/kv/user:0001
//	curl localhost:8080/kv/user:0001
//	curl 'localhost:8080/scan?prefix=user:&limit=10'
//	curl localhost:8080/stats          # runtime + per-latch snapshot + histogram percentiles
//	curl localhost:8080/metrics        # Prometheus text format (histograms included)
//	curl 'localhost:8080/trace?sec=2'  # 2s flight-recorder dump, Chrome trace JSON (Perfetto)
//	curl -o contention.pb.gz localhost:8080/debug/contention  # blame profile (go tool pprof contention.pb.gz)
//	curl 'localhost:8080/debug/contention?fmt=folded'         # folded stacks for flamegraph tooling
//	curl localhost:8080/policy         # current latch contention policy
//	curl -X POST -d lc localhost:8080/policy   # hot-swap every latch's policy
//
// With -pprof the standard net/http/pprof handlers mount under
// /debug/pprof/. golc latch waits live in the flight recorder
// (/metrics, /trace, /debug/contention), not the runtime's profiles.
//
// The /policy endpoint is the operator's overload lever: POST a golc
// contention policy name (spin, block, lc) and every shard and
// lock-table latch flips to it live via the runtime's SetPolicy — e.g.
// moving a service that was started with spin latches onto
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
// real contention (blame edges, wait histograms) into a server being
// watched with lctop or scraped in CI:
//
//	lcserve -loadgen -target http://localhost:8080 -conns 64 -duration 2s
//
// Numbers come from lcperf (bash benchmark/run.sh); the lc-versus-spin
// demonstration on one lock is examples/quickstart.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
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
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "serve address")
		shards   = flag.Int("shards", 16, "primary shards")
		mode     = flag.String("mode", golc.LoadControlled.Name(), "latch contention policy: "+strings.Join(golc.PolicyNames(), ", "))
		loadgen  = flag.Bool("loadgen", false, "be an HTTP load client for the running lcserve at -target, then exit")
		target   = flag.String("target", "", "with -loadgen: base URL of the lcserve to drive (e.g. http://localhost:8080)")
		conns    = flag.Int("conns", 64, "loadgen client goroutines")
		duration = flag.Duration("duration", 2*time.Second, "loadgen run time")
		pprofFl  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		blameSmp = flag.Int("blame-sampling", obs.DefaultBlameSampling, "blame-sample 1-in-N contended acquisitions (rounded up to a power of two; 1: every one)")
		durable  = flag.Bool("durable", false, "write-ahead log durability: recover the store from -waldir on start, group-commit every /txn through it, checkpoint on clean shutdown")
		walDir   = flag.String("waldir", "wal", "with -durable: the log directory (segments + checkpoint)")
	)
	flag.Parse()

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
		driveTarget(strings.TrimRight(*target, "/"), *conns, *duration)
		return
	}

	lockPolicy, err := golc.PolicyByName(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcserve:", err)
		os.Exit(2)
	}
	store := kv.New(kv.Options{Shards: *shards, Policy: lockPolicy})
	// Durability: the WAL must open against the store while it is still
	// empty — recovery seeds it from the checkpoint and replays the redo
	// tail — and before the DB exists, so every /txn commit from the
	// first request on runs the group-commit protocol.
	var walLog *wal.Log
	if *durable {
		var rs wal.RecoveryStats
		walLog, rs, err = wal.Open(wal.Options{Dir: *walDir, Policy: lockPolicy}, store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcserve: wal:", err)
			os.Exit(1)
		}
		fmt.Printf("lcserve: wal recovery: checkpoint lsn=%d (%d keys), %d segment(s) scanned, "+
			"%d record(s)/%d write(s) replayed, %d torn byte(s) truncated, %d segment(s) dropped, max lsn=%d\n",
			rs.CheckpointLSN, rs.CheckpointKeys, rs.SegmentsScanned,
			rs.RecordsReplayed, rs.WritesReplayed, rs.TornBytes, rs.DroppedSegments, rs.MaxLSN)
	}
	db := oltp.New(store, oltp.Options{MaxRetries: oltp.DefaultMaxRetries, WAL: walLog})
	durability := "volatile"
	if walLog != nil {
		durability = "durable, wal at " + *walDir
	}
	fmt.Printf("lcserve: serving %d-shard kv (%s latches, %s) on %s\n",
		store.Shards(), store.Policy().Name(), durability, *addr)
	// Serve mode registers every latch with the process-wide runtime
	// (kv.Options.Runtime nil), so that is the runtime the handler's
	// stats/metrics/trace endpoints observe. -blame-sampling takes
	// effect on its recorder before any traffic arrives.
	rt := lcrt.Default()
	rt.Recorder().SetBlameSampling(*blameSmp)
	h := server.NewHandler(store, db, rt, walLog)
	if *pprofFl {
		// net/http/pprof registers only on http.DefaultServeMux, which
		// this server never installs — mount its handlers explicitly,
		// in front of the service's.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
	}
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

// driveTarget aims conns client goroutines at a running lcserve for
// duration: the loadgen kv op mix plus a slice of deliberately
// conflicting multi-op transactions on a two-key hot set, so the
// target's shard latches AND its logical lock manager both see real
// concurrent contention — which is what fills the blame matrix and the
// wait histograms an operator (or CI) then reads back.
func driveTarget(base string, conns int, duration time.Duration) {
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
					ok = httpOp(client, base, worker, i)
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

// loadgenKeys is the keyspace the loadgen's kv ops draw from.
const loadgenKeys = 512

func keyName(i int) string { return fmt.Sprintf("user:%05d", i) }

// opKind picks the operation mix: 70% get, 25% put, 5% scan (the
// lookup share that went with the secondary index moved to get).
func opKind(worker, i int) int {
	x := (worker*7919 + i) % 20
	switch {
	case x < 14:
		return 0 // get
	case x < 19:
		return 1 // put
	default:
		return 2 // scan
	}
}

// httpOp issues one request and reports whether it completed with a
// non-5xx status.
func httpOp(client *http.Client, base string, worker, i int) bool {
	key := keyName((worker*31 + i*17) % loadgenKeys)
	var resp *http.Response
	var err error
	switch opKind(worker, i) {
	case 0:
		resp, err = client.Get(base + "/kv/" + key)
	case 1:
		req, _ := http.NewRequest(http.MethodPut, base+"/kv/"+key,
			strings.NewReader(fmt.Sprintf("tier-%d", i%16)))
		resp, err = client.Do(req)
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
