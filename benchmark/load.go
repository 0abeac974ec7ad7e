package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// txnFunc runs one transaction for a worker and reports whether it had
// a write-set. sp is non-nil only inside a traced window; the function
// may record child spans of the transaction's root span into it.
type txnFunc func(worker int, rng *rand.Rand, sp *spanBuf) (write bool, err error)

// sample packs one committed transaction: its caller-observed latency
// in ns, clamped to 31 bits (2.1 s — beyond the lock manager's own wait
// timeout), and a flag for a non-empty write-set.
type sample uint32

const sampleWrite sample = 1 << 31

func (s sample) ns() float64 { return float64(s &^ sampleWrite) }

// workerLog is one worker's record of one window. Only its worker
// writes it while the window is open.
type workerLog struct {
	samples []sample // off heap, in completion order; cap is the worker's share of the arena
	bounds  []int    // bounds[i] is len(samples) when slice i+1 began
	failed  int64
	dropped int64 // samples that did not fit
	spans   *spanBuf
	_       [64]byte // keep neighbouring workers off one cache line
}

// window is one measured interval, cut into equal slices so that rates
// and percentiles can be reported as medians over slices.
type window struct {
	t0      time.Time
	dur     time.Duration
	nslices int
	slice   time.Duration
	logs    []workerLog
	release func() // unmaps the sample arena
}

// load drives a closed loop: each worker issues its next transaction
// when the previous one returns. Windows are opened one at a time over
// the running workers.
type load struct {
	txn      txnFunc
	cur      atomic.Pointer[window]
	seen     []atomic.Pointer[window] // what each worker last loaded from cur
	stop     atomic.Bool
	dying    atomic.Bool // the system under test is being killed: errors end a worker quietly
	warmed   atomic.Int64
	warmFail atomic.Int64
	wg       sync.WaitGroup
}

// warmupLimit bounds the wait for the warm-up: a system that cannot
// commit it in this long is broken, not slow.
const warmupLimit = 60 * time.Second

// startLoad launches the workers and returns once they have committed
// warmup (at least one) transactions between them.
func startLoad(workers int, seed int64, warmup int64, txn txnFunc) (*load, error) {
	l := &load{txn: txn, seen: make([]atomic.Pointer[window], workers)}
	warm := make(chan struct{})
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.work(w, rand.New(rand.NewSource(workerSeed(seed, w))), warmup, warm)
		}()
	}
	select {
	case <-warm:
		return l, nil
	case <-time.After(warmupLimit):
		l.halt()
		return nil, fmt.Errorf("warm-up: %d of %d transactions committed (%d failed) in %v",
			l.warmed.Load(), warmup, l.warmFail.Load(), warmupLimit)
	}
}

func (l *load) work(id int, rng *rand.Rand, warmup int64, warm chan struct{}) {
	for !l.stop.Load() {
		w := l.cur.Load()
		l.seen[id].Store(w)
		var sp *spanBuf
		if w != nil {
			sp = w.logs[id].spans
		}
		start := time.Now()
		write, err := l.txn(id, rng, sp)
		end := time.Now()
		if err != nil {
			if l.dying.Load() {
				return
			}
			if w != nil {
				w.logs[id].failed++
			} else {
				l.warmFail.Add(1)
			}
			// A failing system must not turn the closed loop into a busy
			// loop that starves whatever could still succeed.
			time.Sleep(time.Millisecond)
			continue
		}
		if w == nil {
			if l.warmed.Add(1) == warmup {
				close(warm)
			}
			continue
		}
		off := end.Sub(w.t0)
		if off >= w.dur {
			continue
		}
		lg := &w.logs[id]
		for i := int(off / w.slice); len(lg.bounds) < i; {
			lg.bounds = append(lg.bounds, len(lg.samples))
		}
		if len(lg.samples) == cap(lg.samples) {
			lg.dropped++
			continue
		}
		s := sample(min(end.Sub(start), time.Duration(sampleWrite-1)))
		if write {
			s |= sampleWrite
		}
		lg.samples = append(lg.samples, s)
		if sp != nil {
			sp.root(start, end)
		}
	}
}

// arenaRate sizes a window's sample arena: room for this many samples a
// second, ten times what the fastest workload commits on the recording
// machine, split evenly between the workers.
const arenaRate = 2 << 20

// measure opens a window of one-second slices (never fewer than four),
// sleeps through it, and returns it once no worker can still be writing
// to it. With a tracer, every worker records spans for the window. The
// window's stats release it.
func (l *load) measure(dur time.Duration, tr *tracer) (*window, error) {
	workers, nslices := len(l.seen), max(4, int(dur/time.Second))
	w := &window{dur: dur, nslices: nslices, slice: dur / time.Duration(nslices), logs: make([]workerLog, workers)}
	share := max(1<<16, int(dur.Seconds()*arenaRate)/workers)
	arena, release, err := offHeap[sample](share * workers)
	if err != nil {
		return nil, err
	}
	w.release = release
	for i := range w.logs {
		w.logs[i].samples = arena[i*share : i*share : (i+1)*share]
		w.logs[i].bounds = make([]int, 0, nslices+1)
		if tr != nil {
			if w.logs[i].spans, err = tr.buf(workers, windowSpanBudget); err != nil {
				release()
				return nil, err
			}
		}
	}
	w.t0 = time.Now()
	l.cur.Store(w)
	time.Sleep(dur)
	l.cur.Store(nil)
	for i := range l.seen {
		// A worker inside a transaction still holds the window; it drops
		// its sample (the window is over) but only then lets go.
		for l.seen[i].Load() == w {
			time.Sleep(200 * time.Microsecond)
		}
	}
	for i := range w.logs {
		if n := w.logs[i].dropped; n > 0 {
			release()
			return nil, fmt.Errorf("worker %d committed %d transactions more than its share of the sample arena holds", i, n)
		}
	}
	return w, nil
}

// arenaMB is how much of the sample arena the window's samples have
// touched, in MB: memory the harness, not the system under test, added
// to the process.
func (w *window) arenaMB() float64 {
	const page = 4096
	pages := 0
	for i := range w.logs {
		pages += (len(w.logs[i].samples)*int(unsafe.Sizeof(sample(0))) + page - 1) / page
	}
	return float64(pages) * page / (1 << 20)
}

// halt stops the workers and waits for them.
func (l *load) halt() {
	l.stop.Store(true)
	l.wg.Wait()
}

// windowStats is what one window measured.
type windowStats struct {
	committed int64
	failed    int64
	rate      float64 // committed txns per second, quietQuarter over slices
	mean      float64 // the same over the whole window: for ratios between short windows
	rates     []float64
	all       latency // every committed transaction
	write     latency // those with a write-set
}

// latency is a median and a tail, each the median over groups of the
// window's slices, with the quantile the tail could support.
type latency struct {
	n      int
	p50us  float64
	tailus float64
	tailQ  float64
	groups int
	groupN int       // samples in the smallest group
	tails  []float64 // each group's tail, in us
}

// stats folds the per-worker logs into per-slice figures and reports
// each over slices (the rate as quietQuarter, latencies as medians), not
// over the window: slow slices (a GC cycle, a neighbour's burst) then
// move nothing, where they would drag a whole-window figure. It releases
// the window's arena.
func (w *window) stats() windowStats {
	defer w.release()
	var st windowStats
	perSlice := make([][]sample, w.nslices)
	for i := range w.logs {
		lg := &w.logs[i]
		st.failed += lg.failed
		st.committed += int64(len(lg.samples))
		from := 0
		for s := 0; s < w.nslices; s++ {
			to := len(lg.samples)
			if s < len(lg.bounds) {
				to = lg.bounds[s]
			}
			perSlice[s] = append(perSlice[s], lg.samples[from:to]...)
			from = to
		}
	}
	rates := make([]float64, w.nslices)
	for s, ss := range perSlice {
		rates[s] = float64(len(ss)) / w.slice.Seconds()
	}
	st.rate, st.rates = quietQuarter(rates), rates
	st.mean = float64(st.committed) / w.dur.Seconds()
	st.all = sliceLatency(perSlice, func(sample) bool { return true })
	st.write = sliceLatency(perSlice, func(s sample) bool { return s&sampleWrite != 0 })
	return st
}

// tailSupport is how many samples a group of slices should hold before
// its p99 is taken: twice the thousand that leave ten samples beyond it.
const tailSupport = 2000

// sliceLatency takes the percentiles of the kept samples per group of
// adjacent slices and the median over groups. Slices are grouped until
// a group is expected to hold tailSupport samples, so a sparse class
// (write transactions behind an fsync) still reports a real p99, over
// fewer groups; only a window too short for that reports a lower
// quantile, named in the run's notes.
func sliceLatency(perSlice [][]sample, keep func(sample) bool) latency {
	kept := make([][]sample, len(perSlice))
	n := 0
	for s, ss := range perSlice {
		for _, v := range ss {
			if keep(v) {
				kept[s] = append(kept[s], v&^sampleWrite)
			}
		}
		n += len(kept[s])
	}
	lat := latency{n: n}
	if n == 0 {
		return lat
	}
	per := min(len(kept), (tailSupport*len(kept)+n-1)/n) // slices per group
	lat.groups = len(kept) / per
	groups := make([][]sample, lat.groups)
	for s, ss := range kept {
		g := min(s/per, lat.groups-1) // leftover slices join the last group
		groups[g] = append(groups[g], ss...)
	}
	lat.groupN = n
	for _, g := range groups {
		slices.Sort(g)
		lat.groupN = min(lat.groupN, len(g))
	}
	if lat.groupN == 0 {
		return lat
	}
	lat.tailQ = supportedQuantile(lat.groupN, 0.99)
	var p50s, tails []float64
	for _, g := range groups {
		p50s = append(p50s, quantileSorted(g, 0.5).ns()/1e3)
		tails = append(tails, quantileSorted(g, lat.tailQ).ns()/1e3)
	}
	lat.p50us, lat.tailus, lat.tails = median(p50s), median(tails), tails
	return lat
}
