package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/wal"
)

// Layer probes: each layer's public calls, timed from outside on their
// own, with the workload's keys and write-sets, at the workload's
// worker count and GOMAXPROCS. A layer's self time is its span less the
// probe spans of the layers below it.

// probeBatch is how many kv calls one probe span covers: a single Get
// is about as long as the two clock reads around it.
const probeBatch = 16

// probeShape is what the probes learned about the workload's median
// transaction, for the self-time arithmetic.
type probeShape struct {
	readsPerTxn     float64
	medianTxnWrites bool
}

// probeLayers runs every probe inside budget and reports its metrics.
func (r *run) probeLayers(budget time.Duration) (probeShape, error) {
	m := r.res.Metrics
	u := budget / 10
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()

	mu := golc.New("probe/mutex", golc.WithRuntime(rt))
	m.set("golc.lock_uncontended_ns", pairNs(u/2, func() {
		mu.Lock()
		mu.Unlock()
	}))
	mu.Close()
	rw := golc.NewRW("probe/rwmutex", golc.WithRuntime(rt))
	m.set("golc.rw_uncontended_ns", pairNs(u/2, func() {
		rw.RLock()
		rw.RUnlock()
	}))
	rw.Close()

	h := probeHandoff(rt, r.wl.workers(), 2*u)
	if len(h) > 0 {
		m.set("golc.handoff_p50_ns", float64(quantileSorted(h, 0.5)))
		m.set("golc.handoff_p99_ns", float64(quantileSorted(h, supportedQuantile(len(h), 0.99))))
	}

	keys, value, shape := r.probeKeys()
	store := kv.New(kv.Options{Runtime: rt})
	defer store.Close()
	fill := rand.New(rand.NewSource(r.seed))
	for _, k := range keys.all {
		store.Put(k, value(fill))
	}
	for _, p := range []struct {
		name spanName
		call func(*rand.Rand)
	}{
		{spanGet, func(rng *rand.Rand) { store.Get(keys.pick(rng)) }},
		{spanPut, func(rng *rand.Rand) { store.Put(keys.pick(rng), value(rng)) }},
		{spanApply, func(rng *rand.Rand) { store.ApplyBatch(keys.batch(rng, value)) }},
	} {
		if err := r.probeKV(p.name, u, p.call); err != nil {
			return shape, err
		}
	}
	m.set("kv.get_p50_ns", r.tr.quantile(spanGet, 0.5)/probeBatch)
	m.set("kv.put_p50_ns", r.tr.quantile(spanPut, 0.5)/probeBatch)
	m.set("kv.applybatch_p50_ns", r.tr.quantile(spanApply, 0.5)/probeBatch)

	if r.wl.durable {
		if err := r.probeCommit(rt, 3*u, func(rng *rand.Rand) []kv.Write { return keys.batch(rng, value) }); err != nil {
			return shape, err
		}
		m.set("wal.commit_p50_us", r.tr.quantile(spanCommit, 0.5)/1e3)
		m.set("wal.commit_p99_us", r.tr.quantile(spanCommit, 0.99)/1e3)
	}
	return shape, nil
}

// pairNs times fn (one acquire/release pair) on one goroutine: the
// median over batches of the mean ns per pair.
func pairNs(d time.Duration, fn func()) float64 {
	const batch = 10000
	var per []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(per) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(per)
}

// probeHandoff hammers one hot lc mutex with 500 ns holds and returns
// the sorted handoff times in ns: from one holder's release to the next
// holder's acquisition.
func probeHandoff(rt *lcrt.Runtime, workers int, d time.Duration) []uint32 {
	const hold = 500 * time.Nanosecond
	mu := golc.New("probe/handoff", golc.WithRuntime(rt))
	defer mu.Close()
	epoch := time.Now()
	var released time.Duration // guarded by mu: when the previous holder let go
	var stop atomic.Bool
	per := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				mu.Lock()
				got := time.Since(epoch)
				if released != 0 {
					per[w] = append(per[w], uint32(min(got-released, 1<<32-1)))
				}
				for time.Since(epoch) < got+hold {
					// The critical section under test: a busy hold, no calls out.
				}
				released = time.Since(epoch)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	all := slices.Concat(per...)
	slices.Sort(all)
	return all
}

// keySet is a workload's storage keys with its access skew.
type keySet struct {
	all    []string
	hot    int // the first hot keys draw hotAccessFrac of the accesses; 0 for uniform
	writes int // writes per transaction write-set
}

func (k keySet) pick(rng *rand.Rand) string {
	if k.hot > 0 && rng.Float64() < hotAccessFrac {
		return k.all[rng.Intn(k.hot)]
	}
	return k.all[rng.Intn(len(k.all))]
}

func (k keySet) batch(rng *rand.Rand, value func(*rand.Rand) string) []kv.Write {
	b := make([]kv.Write, k.writes)
	for i := range b {
		b[i] = kv.Write{Key: k.pick(rng), Value: value(rng)}
	}
	return b
}

// probeKeys reproduces the workload's key population, value shape and
// write-set size for the probes.
func (r *run) probeKeys() (keySet, func(*rand.Rand) string, probeShape) {
	if r.wl.shape == "conflict" {
		cc := r.conflictConfig()
		ks := keySet{writes: 2} // four records at write fraction 0.5
		for i := 0; i < cc.Partitions*cc.PerPartition; i++ {
			ks.all = append(ks.all, fmt.Sprintf("conf/r%07d", i))
		}
		return ks, func(rng *rand.Rand) string { return fmt.Sprint(rng.Intn(1000)) },
			probeShape{readsPerTxn: float64(cc.RecordsPerTxn), medianTxnWrites: true}
	}
	ks := keySet{hot: max(1, r.size.subscribers/hotSetDiv), writes: 2} // a row and its companion (cf slot, or ack)
	for id := 0; id < r.size.subscribers; id++ {
		ks.all = append(ks.all, subTable+"/"+subKey(id))
	}
	shape := probeShape{readsPerTxn: 2} // TATP's median transaction: GetSubscriberData
	if r.wl.shape == "http" {
		shape.readsPerTxn = 1.5 // the mix's median: one read, half the time a second
	}
	return ks, func(rng *rand.Rand) string {
		return fmt.Sprintf("sub=%d ver=%d", rng.Intn(r.size.subscribers), rng.Int())
	}, shape
}

// probeKV runs call from the workload's worker count for d, one span
// per probeBatch calls.
func (r *run) probeKV(name spanName, d time.Duration, call func(*rand.Rand)) error {
	return r.probeWorkers(d, func(_ int, rng *rand.Rand, sp *spanBuf) {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			call(rng)
		}
		sp.single(name, t0, time.Now())
	})
}

// probeWorkers runs step in a loop on each of the workload's workers
// until d has passed.
func (r *run) probeWorkers(d time.Duration, step func(worker int, rng *rand.Rand, sp *spanBuf)) error {
	workers := r.wl.workers()
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for w := 0; w < workers; w++ {
		sp, err := r.tr.buf(workers, probeSpanBudget)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(r.seed, w)))
			for !stop.Load() {
				step(w, rng, sp)
			}
		}()
	}
	time.Sleep(d)
	return nil
}

// probeCommit times Log.Commit on a fresh log with the workload's
// write-sets and worker count: the log alone, without the lock manager
// above it or the store below.
func (r *run) probeCommit(rt *lcrt.Runtime, d time.Duration, batch func(*rand.Rand) []kv.Write) error {
	dir, err := os.MkdirTemp(r.tmp, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := kv.New(kv.Options{Runtime: rt})
	defer store.Close()
	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Runtime: rt}, store)
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	var failed atomic.Int64
	err = r.probeWorkers(d, func(_ int, rng *rand.Rand, sp *spanBuf) {
		b := batch(rng)
		t0 := time.Now()
		lsn, err := log.Commit(b)
		sp.single(spanCommit, t0, time.Now())
		if err != nil {
			failed.Add(1)
			return
		}
		log.NoteApplied(lsn)
	})
	r.check(failed.Load() == 0, "%d probe commits failed", failed.Load())
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}
