package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// session is one in-process engine under load.
type session struct {
	eng      *engine
	load     *load
	conflict *oltp.Conflict // nil for TATP
}

// conflictConfig is the write-heavy shape: 65k rows against 64 workers,
// so logical conflicts are rare and every transaction reaches the log.
// (oltp.Conflict's default shape commits ~400/s against ~19k aborts/s at
// this worker count: it measures wait-die, not the log.)
func (r *run) conflictConfig() oltp.ConflictConfig {
	return oltp.ConflictConfig{Partitions: 16, PerPartition: r.size.perPartition, RecordsPerTxn: 4, OverlapFrac: 0, WriteFrac: 0.5}
}

// startInproc builds an engine under pol, populates it and drives it
// through the warm-up: everything up to the first measured operation.
func (r *run) startInproc(pol golc.ContentionPolicy) (*session, error) {
	walDir := ""
	if r.wl.durable {
		dir, err := os.MkdirTemp(r.tmp, "wal-")
		if err != nil {
			return nil, err
		}
		walDir = filepath.Join(dir, "wal")
	}
	eng, err := newEngine(pol, walDir)
	if err != nil {
		return nil, err
	}
	s := &session{eng: eng}
	var txn txnFunc
	if r.wl.shape == "conflict" {
		s.conflict = oltp.NewConflict(eng.db, r.conflictConfig())
		// Conflict.Run keeps its record set to itself; with four records
		// at write fraction 0.5, 15 in 16 transactions have a write-set,
		// and all are reported as write transactions.
		txn = func(_ int, rng *rand.Rand, _ *spanBuf) (bool, error) { return true, s.conflict.Run(rng) }
	} else {
		tatp := oltp.NewTATP(eng.db, oltp.TATPConfig{Subscribers: r.size.subscribers, HotAccessFrac: -1})
		txn = func(_ int, rng *rand.Rand, _ *spanBuf) (bool, error) {
			kind := tatp.PickKind(rng)
			return kind != oltp.GetSubscriberData, tatp.Run(kind, rng)
		}
	}
	s.load, err = startLoad(r.wl.workers(), r.seed, max(1, r.wl.warmup/r.size.warmupDiv), txn)
	if err != nil {
		eng.discard()
		return nil, err
	}
	return s, nil
}

// finish stops the load, checks the engine at quiescence, shuts it down
// and — for a durable workload — recovers its log into an empty store
// and checks that nothing committed was lost or invented.
func (r *run) finish(s *session) error {
	s.load.halt()
	c := s.eng.counters()
	r.check(c.lockEntries == 0, "%d lock-table entries left at quiescence", c.lockEntries)
	r.check(c.db.TimeoutAborts == 0, "%d lock waits ended by the timeout backstop", c.db.TimeoutAborts)
	r.check(s.load.warmFail.Load() == 0, "%d transactions failed during warm-up", s.load.warmFail.Load())
	if s.conflict == nil {
		missing := 0
		for id := 0; id < r.size.subscribers; id++ {
			if v, ok := s.eng.store.Get(subTable + "/" + subKey(id)); !ok || !strings.HasPrefix(v, fmt.Sprintf("sub=%d ", id)) {
				missing++
			}
		}
		r.check(missing == 0, "%d subscriber rows missing or malformed after the run", missing)
	}
	if !r.wl.durable {
		return s.eng.close()
	}

	live := s.eng.store.Scan("", 0)
	liveWrites := s.conflict.TotalWrites()
	if err := s.eng.close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	defer os.RemoveAll(filepath.Dir(s.eng.walDir))
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	recovered := kv.New(kv.Options{Runtime: rt})
	defer recovered.Close()
	t0 := time.Now()
	log, rs, err := wal.Open(wal.Options{Dir: s.eng.walDir, Runtime: rt}, recovered)
	took := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("recover wal: %w", err)
	}
	defer log.Close()
	if _, reported := r.res.Metrics["wal.recovery_s"]; r.tr != nil && !reported { // the lc phase's log, not the reference's
		r.res.Metrics.set("wal.recovery_s", took)
		r.res.Metrics.set("wal.replay_records_per_s", ratio(float64(rs.RecordsReplayed), took))
	}
	// Every committed record write incremented one counter by one and
	// was logged; the initial load was not logged, so rows never written
	// are absent from the recovered store and "0" in the live one.
	got := make(map[string]string, recovered.Len())
	recoveredWrites := 0
	for _, p := range recovered.Scan("", 0) {
		got[p.Key] = p.Value
		n, _ := strconv.Atoi(p.Value)
		recoveredWrites += n
	}
	diverged := 0
	for _, p := range live {
		if v, ok := got[p.Key]; ok && v != p.Value || !ok && p.Value != "0" {
			diverged++
		}
	}
	r.check(diverged == 0, "%d rows differ between the live store and the one recovered from the log", diverged)
	r.check(len(got) <= len(live), "recovery invented rows: %d recovered, %d live", len(got), len(live))
	r.check(liveWrites == rs.WritesReplayed && liveWrites == recoveredWrites,
		"write conservation: live store holds %d record writes, the log replayed %d, the recovered store holds %d",
		liveWrites, rs.WritesReplayed, recoveredWrites)
	r.check(rs.TornBytes == 0 && rs.DroppedSegments == 0, "clean close left a torn log: %d torn bytes, %d dropped segments", rs.TornBytes, rs.DroppedSegments)
	return nil
}

// runInproc is an in-process workload, traced or not.
func (r *run) runInproc() error {
	if r.tr != nil {
		return r.runInprocTraced()
	}
	var setups []float64
	var s *session
	for range r.setups() {
		if s != nil {
			s.load.halt()
			s.eng.discard()
		}
		t0 := time.Now()
		var err error
		if s, err = r.startInproc(golc.LoadControlled); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := r.window(false)
	w, err := s.load.measure(d, nil)
	if err != nil {
		return err
	}
	// Peak memory is read before the harness sorts its samples, and less
	// the pages its sample arena has touched: those grow with throughput,
	// and a faster system must not read as a bigger one.
	rss, err := procStatusMB("self", "VmHWM")
	if err != nil {
		return err
	}
	rss -= w.arenaMB()
	st := r.counted(w.stats())
	if err := r.finish(s); err != nil {
		return err
	}
	r.endToEnd(st, setups, rss)
	return nil
}

// runInprocTraced spends a quarter of the time each on: untraced lc
// windows (the baseline tracing overhead is judged against), a traced lc
// window with the layer counters read around it, the reference policy,
// and the layer probes.
func (r *run) runInprocTraced() error {
	m := r.res.Metrics
	s, err := r.startInproc(golc.LoadControlled)
	if err != nil {
		return err
	}
	census := startCensus(s.eng.db)
	t, err := r.tracedWindows(s.load, func() (counters, error) { return s.eng.counters(), nil })
	m.set("oltp.lock_entries_peak", float64(census.stop()))
	if err != nil {
		return err
	}
	if err := r.finish(s); err != nil {
		return err
	}

	ref, err := golc.PolicyByName(r.wl.ref)
	if err != nil {
		return err
	}
	if s, err = r.startInproc(ref); err != nil {
		return err
	}
	refStats, err := r.measured(s.load, r.window(true), nil)
	if err != nil {
		return err
	}
	m.set("golc.ref_txn_per_s", refStats.mean)
	m.set("golc.lc_over_ref", ratio(t.untraced, refStats.mean))
	r.note("reference policy %s: %.0f txn/s", r.wl.ref, refStats.mean)
	if err := r.finish(s); err != nil {
		return err
	}

	p, err := r.probeLayers(r.window(true))
	if err != nil {
		return err
	}
	// What the transaction spent above kv and the log: its own span less
	// the probed cost of the calls the median transaction makes below.
	below := p.readsPerTxn * m["kv.get_p50_ns"].Value / 1e3
	if p.medianTxnWrites {
		below += m["kv.applybatch_p50_ns"].Value/1e3 + m["wal.commit_p50_us"].Value
	}
	m.set("oltp.txn_self_p50_us", r.tr.quantile(spanTxn, 0.5)/1e3-below)
	return nil
}

// census samples the live lock-table entry count every 10 ms.
type census struct {
	quit chan struct{}
	peak chan int
}

func startCensus(db *oltp.DB) *census {
	c := &census{quit: make(chan struct{}), peak: make(chan int, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := 0
		for {
			select {
			case <-c.quit:
				c.peak <- peak
				return
			case <-tick.C:
				peak = max(peak, db.LockEntries())
			}
		}
	}()
	return c
}

// stop ends the sampling and returns the peak.
func (c *census) stop() int {
	close(c.quit)
	return <-c.peak
}
