package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// server is one lcserve -durable subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string  // http://127.0.0.1:port
	readyS float64 // spawn to first answered /stats
	log    *bytes.Buffer
}

// buildServer compiles cmd/lcserve into the build directory. It is a
// one-off per checkout and is not part of setup_s.
func (r *run) buildServer() (string, error) {
	bin := filepath.Join(r.root, buildDir, "lcserve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lcserve")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lcserve: %v\n%s", err, out)
	}
	r.note("go build ./cmd/lcserve: %.2f s (not part of setup_s)", time.Since(t0).Seconds())
	return bin, nil
}

// startServer launches lcserve on a free port over walDir and waits
// until it answers.
func (r *run) startServer(bin, walDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr, log: new(bytes.Buffer)}
	s.cmd = exec.Command(bin, "-addr", addr, "-durable", "-waldir", walDir)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.wl.procs()))
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	t0 := time.Now()
	if err := r.rp.spawn(s.cmd); err != nil {
		return nil, err
	}
	for deadline := t0.Add(20 * time.Second); ; {
		resp, err := http.Get(s.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness probe: only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			r.rp.kill(s.cmd)
			return nil, fmt.Errorf("lcserve not ready after 20 s:\n%s", s.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.readyS = time.Since(t0).Seconds()
	return s, nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// serverStats is the part of GET /stats the harness reads.
type serverStats struct {
	LockEntries int                        `json:"lock_entries"`
	Latches     lcrt.LockStats             `json:"latches"`
	Oltp        oltp.MetricsSnapshot       `json:"oltp"`
	Wal         wal.Stats                  `json:"wal"`
	Hists       map[string]obs.HistSummary `json:"hists"`
	Runtime     lcrt.Snapshot              `json:"runtime"`
}

func (s *server) counters() (counters, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("decode /stats: %w", err)
	}
	cpu, err := procCPUms(s.pid())
	if err != nil {
		return counters{}, err
	}
	lw := st.Hists["lock_wait"]
	return counters{rt: st.Runtime, latch: st.Latches, db: st.Oltp, wal: st.Wal, lockEntries: st.LockEntries,
		lockWaitSum: &lw, serverCPUms: cpu}, nil
}

// txnReply is lcserve's /txn response.
type txnReply struct {
	Committed bool   `json:"committed"`
	Error     string `json:"error"`
	Results   []struct {
		Value string `json:"value"`
		Found *bool  `json:"found"`
	} `json:"results"`
}

// conn is one keep-alive connection's client, generator and model of
// what the server has acknowledged to it. Only its worker touches it
// while the load runs.
type conn struct {
	client   *http.Client
	gen      *mixGen
	acked    int               // last acknowledged write sequence number
	inflight *genTxn           // write transaction sent and not yet answered
	cf       map[string]string // this connection's cf rows after its acked writes; "" is deleted
	subSeq   map[string]int    // the last acked sequence number it wrote to each sub row

	// Totals over the workload's transactions (the initial load is
	// subtracted out by resetting them after it).
	txns, reqBytes, respBytes, httpErrors int64
}

func newConn(seed int64, id, subs int) *conn {
	return &conn{
		// One transport per connection: each worker keeps its own
		// keep-alive connection, as separate clients would.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		gen:    newMixGen(seed, id, subs),
		cf:     make(map[string]string),
		subSeq: make(map[string]int),
	}
}

// post sends one transaction, decodes the reply and counts the bytes of
// both bodies.
func (c *conn) post(base string, ops []op) (txnReply, error) {
	var reply txnReply
	body, err := json.Marshal(struct {
		Ops []op `json:"ops"`
	}{ops})
	if err != nil {
		return reply, err
	}
	resp, err := c.client.Post(base+"/txn", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply, err
	}
	c.reqBytes += int64(len(body))
	c.respBytes += int64(len(data))
	if resp.StatusCode != http.StatusOK {
		c.httpErrors++
		return reply, fmt.Errorf("/txn: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return reply, fmt.Errorf("/txn: decode reply: %w", err)
	}
	if !reply.Committed || len(reply.Results) != len(ops) {
		return reply, fmt.Errorf("/txn: committed=%v with %d results for %d ops", reply.Committed, len(reply.Results), len(ops))
	}
	return reply, nil
}

// apply folds an acknowledged write transaction into the model.
func (c *conn) apply(t *genTxn) {
	c.acked = t.seq
	for _, o := range t.ops {
		switch {
		case o.Table == cfTable && o.Op == "write":
			c.cf[o.Key] = o.Value
		case o.Table == cfTable && o.Op == "delete":
			c.cf[o.Key] = ""
		case o.Table == subTable && o.Op == "write":
			c.subSeq[o.Key] = t.seq
		}
	}
}

// txn issues the connection's next generated transaction.
func (c *conn) txn(base string, sp *spanBuf) (bool, error) {
	t := c.gen.next()
	if t.seq != 0 {
		c.inflight = &t
	}
	t0 := time.Now()
	reply, err := c.post(base, t.ops)
	if sp != nil {
		sp.child(spanRTT, t0, time.Now())
	}
	if err != nil {
		return t.seq != 0, err
	}
	// Every transaction of the mix begins by touching a populated
	// subscriber row; a read of it must find a tagged value.
	if first := reply.Results[0]; t.ops[0].Op == "read" {
		if _, _, ok := parseTag(first.Value); first.Found == nil || !*first.Found || !ok {
			return t.seq != 0, fmt.Errorf("/txn: read of %s/%s returned %q", t.ops[0].Table, t.ops[0].Key, first.Value)
		}
	}
	if t.seq != 0 {
		c.apply(&t)
		c.inflight = nil
	}
	c.txns++
	return t.seq != 0, nil
}

// populate loads the subscriber table through /txn (lcserve -durable
// logs only transactional writes), 128 rows a transaction.
func populate(c *conn, base string, subs int) error {
	for from := 0; from < subs; from += 128 {
		var ops []op
		for id := from; id < min(from+128, subs); id++ {
			ops = append(ops, op{Op: "write", Table: subTable, Key: subKey(id),
				Value: populateValue(id)})
		}
		if _, err := c.post(base, ops); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

// httpSession is one lcserve under load.
type httpSession struct {
	srv    *server
	walDir string
	conns  []*conn
	load   *load
}

// startHTTP starts a server on a fresh log, populates it and drives it
// through the warm-up: everything up to the first measured operation.
func (r *run) startHTTP(bin string) (*httpSession, error) {
	dir, err := os.MkdirTemp(r.tmp, "lcserve-")
	if err != nil {
		return nil, err
	}
	s := &httpSession{walDir: filepath.Join(dir, "wal")}
	if s.srv, err = r.startServer(bin, s.walDir); err != nil {
		return nil, err
	}
	for i := 0; i < r.wl.workers(); i++ {
		s.conns = append(s.conns, newConn(r.seed, i, r.size.subscribers))
	}
	if err := populate(s.conns[0], s.srv.base, r.size.subscribers); err != nil {
		return nil, err
	}
	s.conns[0].reqBytes, s.conns[0].respBytes = 0, 0
	s.load, err = startLoad(len(s.conns), r.seed, max(1, r.wl.warmup/r.size.warmupDiv),
		func(w int, _ *rand.Rand, sp *spanBuf) (bool, error) { return s.conns[w].txn(s.srv.base, sp) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// discard stops the load and the server and removes the log.
func (r *run) discard(s *httpSession) {
	s.load.halt()
	r.rp.kill(s.srv.cmd)
	os.RemoveAll(filepath.Dir(s.walDir))
}

// crashAndVerify kills the server with SIGKILL while the connections
// are still sending, restarts it on the same log, and reads back what
// it recovered:
//
//   - every connection's ack row is at least its last acknowledged
//     sequence number, and at most one (the write in flight) beyond;
//   - each connection's own cf rows are exactly what its acknowledged
//     writes left, with the in-flight transaction applied in full or not
//     at all, according to the recovered ack row;
//   - no subscriber row carries a write whose transaction's ack row was
//     not recovered, nor an older write of a connection than the last
//     one acknowledged to it.
func (r *run) crashAndVerify(bin string, s *httpSession) error {
	m := r.res.Metrics
	c, err := s.srv.counters()
	if err != nil {
		return err
	}
	r.check(c.db.TimeoutAborts == 0, "%d lock waits ended by the timeout backstop", c.db.TimeoutAborts)
	r.check(s.load.warmFail.Load() == 0, "%d transactions failed during warm-up", s.load.warmFail.Load())

	s.load.dying.Store(true)
	r.rp.kill(s.srv.cmd)
	s.load.halt()
	defer os.RemoveAll(filepath.Dir(s.walDir))

	srv, err := r.startServer(bin, s.walDir)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	defer r.rp.kill(srv.cmd)
	rec, err := srv.counters()
	if err != nil {
		return err
	}
	if r.tr != nil {
		m.set("wal.recovery_s", srv.readyS)
		m.set("wal.replay_records_per_s", ratio(float64(rec.wal.Recovery.RecordsReplayed), srv.readyS))
	}
	r.check(rec.lockEntries == 0, "%d lock-table entries in a freshly recovered server", rec.lockEntries)

	// One read-back transaction per 256 rows.
	reader := newConn(0, 0, 1)
	read := func(table string, keys []string) (map[string]string, error) {
		got := make(map[string]string, len(keys))
		for from := 0; from < len(keys); from += 256 {
			chunk := keys[from:min(from+256, len(keys))]
			ops := make([]op, len(chunk))
			for i, k := range chunk {
				ops[i] = op{Op: "read", Table: table, Key: k}
			}
			reply, err := reader.post(srv.base, ops)
			if err != nil {
				return nil, fmt.Errorf("read back: %w", err)
			}
			for i, res := range reply.Results {
				if res.Found != nil && *res.Found {
					got[chunk[i]] = res.Value
				}
			}
		}
		return got, nil
	}

	var ackKeys, subKeys []string
	for i := range s.conns {
		ackKeys = append(ackKeys, strconv.Itoa(i))
	}
	for id := 0; id < r.size.subscribers; id++ {
		subKeys = append(subKeys, subKey(id))
	}
	acks, err := read(ackTable, ackKeys)
	if err != nil {
		return err
	}
	recovered := make([]int, len(s.conns)) // each connection's recovered ack
	for i, c := range s.conns {
		recovered[i], _ = strconv.Atoi(acks[strconv.Itoa(i)]) // absent: 0, nothing acknowledged
		limit := c.acked
		if c.inflight != nil {
			limit++
		}
		r.check(recovered[i] >= c.acked && recovered[i] <= limit,
			"connection %d: acknowledged up to write %d, recovered ack row says %d (in flight: %v)", i, c.acked, recovered[i], c.inflight != nil)
		if c.inflight != nil && recovered[i] == c.inflight.seq {
			c.apply(c.inflight) // it committed before the kill: all of it must be there
		}
		var keys []string
		for k := range c.cf {
			keys = append(keys, k)
		}
		got, err := read(cfTable, keys)
		if err != nil {
			return err
		}
		wrong := 0
		for k, want := range c.cf {
			if got[k] != want {
				wrong++
			}
		}
		r.check(wrong == 0, "connection %d: %d of its %d cf rows differ from what its acknowledged writes left", i, wrong, len(c.cf))
	}
	subs, err := read(subTable, subKeys)
	if err != nil {
		return err
	}
	missing, unacked, stale := 0, 0, 0
	for _, k := range subKeys {
		cn, seq, ok := parseTag(subs[k])
		switch {
		case !ok:
			missing++
		case cn == populateConn:
			for _, c := range s.conns {
				if c.subSeq[k] != 0 {
					stale++ // an acknowledged update vanished
				}
			}
		case cn < 0 || cn >= len(s.conns) || seq > recovered[cn]:
			unacked++
		case seq < s.conns[cn].subSeq[k]:
			stale++
		}
	}
	r.check(missing == 0, "%d subscriber rows missing or malformed after recovery", missing)
	r.check(unacked == 0, "%d subscriber rows carry a write whose ack row was not recovered", unacked)
	r.check(stale == 0, "%d subscriber rows lost an acknowledged write", stale)
	return nil
}

// httpMetrics reports the lcserve layer's own metrics over a window.
func (r *run) httpMetrics(s *httpSession, txns float64, cpuMs float64) {
	m := r.res.Metrics
	var total, req, resp, errs int64
	for _, c := range s.conns {
		total, req, resp, errs = total+c.txns, req+c.reqBytes, resp+c.respBytes, errs+c.httpErrors
	}
	m.set("lcserve.req_bytes_per_txn", ratio(float64(req), float64(total)))
	m.set("lcserve.resp_bytes_per_txn", ratio(float64(resp), float64(total)))
	m.set("lcserve.http_errors", float64(errs))
	m.set("lcserve.cpu_ms_per_ktxn", ratio(cpuMs, txns/1e3))
	m.set("lcserve.ready_s", s.srv.readyS)
	m.set("lcserve.rtt_p50_us", r.tr.quantile(spanRTT, 0.5)/1e3)
}

// runHTTP is the end-to-end workload, traced or not.
func (r *run) runHTTP() error {
	bin, err := r.buildServer()
	if err != nil {
		return err
	}
	if r.tr != nil {
		return r.runHTTPTraced(bin)
	}
	var setups []float64
	var s *httpSession
	for range r.setups() {
		if s != nil {
			r.discard(s)
		}
		t0 := time.Now()
		if s, err = r.startHTTP(bin); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st, err := r.measured(s.load, r.window(false), nil)
	if err != nil {
		return err
	}
	rss, err := procStatusMB(s.srv.pid(), "VmHWM") // the server's, not the harness's
	if err != nil {
		return err
	}
	if err := r.crashAndVerify(bin, s); err != nil {
		return err
	}
	r.endToEnd(st, setups, rss)
	return nil
}

// runHTTPTraced spends its time on untraced windows either side of a
// traced window with /stats read around it, the crash check, and the
// probes — the ordinary layer probes plus the same op lists through an
// in-process engine, which is what lcserve's self time is measured
// against.
func (r *run) runHTTPTraced(bin string) error {
	m := r.res.Metrics
	s, err := r.startHTTP(bin)
	if err != nil {
		return err
	}
	t, err := r.tracedWindows(s.load, s.srv.counters)
	if err != nil {
		return err
	}
	m.set("oltp.lock_entries_peak", float64(max(t.c0.lockEntries, t.c1.lockEntries)))
	if err := r.crashAndVerify(bin, s); err != nil {
		return err
	}
	r.httpMetrics(s, float64(t.traced.committed), t.c1.serverCPUms-t.c0.serverCPUms) // the connections' counters are still once the load has stopped

	d := r.window(true)
	if err := r.probeOltp(d); err != nil {
		return err
	}
	p, err := r.probeLayers(d)
	if err != nil {
		return err
	}
	oltpTxn := r.tr.quantile(spanOltpTxn, 0.5) / 1e3
	m.set("lcserve.self_p50_us", m["lcserve.rtt_p50_us"].Value-oltpTxn)
	m.set("oltp.txn_self_p50_us", oltpTxn-p.readsPerTxn*m["kv.get_p50_ns"].Value/1e3)
	return nil
}

// probeOltp runs the HTTP mix's op lists straight through an in-process
// engine configured like lcserve's — same log, same policy, same worker
// count — so the HTTP round trip can be split into lcserve's own time
// and the engine's.
func (r *run) probeOltp(d time.Duration) error {
	dir, err := os.MkdirTemp(r.tmp, "probe-oltp-")
	if err != nil {
		return err
	}
	eng, err := newEngine(golc.LoadControlled, filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer eng.discard()
	defer os.RemoveAll(dir)
	exec := func(ops []op) error {
		return eng.db.Run(func(t *oltp.Txn) error {
			for _, o := range ops {
				var err error
				switch o.Op {
				case "read":
					_, _, err = t.Read(o.Table, o.Key)
				case "write":
					err = t.Write(o.Table, o.Key, o.Value)
				case "delete":
					err = t.Delete(o.Table, o.Key)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	for id := 0; id < r.size.subscribers; id++ {
		eng.store.Put(subTable+"/"+subKey(id), populateValue(id))
	}
	gens := make([]*mixGen, r.wl.workers())
	for i := range gens {
		gens[i] = newMixGen(r.seed, i, r.size.subscribers)
	}
	var failed atomic.Int64
	err = r.probeWorkers(d, func(w int, _ *rand.Rand, sp *spanBuf) {
		t := gens[w].next()
		t0 := time.Now()
		err := exec(t.ops)
		sp.single(spanOltpTxn, t0, time.Now())
		if err != nil {
			failed.Add(1)
		}
	})
	r.check(failed.Load() == 0, "%d in-process probe transactions failed", failed.Load())
	return err
}
