// Package repro's benchmark harness: one benchmark per paper figure
// (regenerating the figure at reduced scale each iteration and reporting
// domain metrics), plus microbenchmarks of the real golc library and of
// the simulator itself.
//
// Figure benchmarks report two custom metrics where meaningful:
//
//	txn/s       simulated-workload throughput (the paper's y-axis)
//	simev/s     simulator event throughput (harness cost)
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/locks"
	"repro/internal/oltp"
	"repro/internal/workload"
)

// benchCfg is the scale used by the figure benchmarks: small enough to
// iterate, large enough to preserve the shapes.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Warmup = 5 * time.Millisecond
	cfg.Window = 20 * time.Millisecond
	return cfg
}

// benchFigure runs one experiment per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig01BlockingVsSpinning(b *testing.B)  { benchFigure(b, "fig01") }
func BenchmarkFig03PrioInversion(b *testing.B)       { benchFigure(b, "fig03") }
func BenchmarkFig04SchedulerOverload(b *testing.B)   { benchFigure(b, "fig04") }
func BenchmarkFig05BackoffVariability(b *testing.B)  { benchFigure(b, "fig05") }
func BenchmarkFig06WorkloadVariability(b *testing.B) { benchFigure(b, "fig06") }
func BenchmarkFig08BumpTest(b *testing.B)            { benchFigure(b, "fig08") }
func BenchmarkFig09ContentionSweep(b *testing.B)     { benchFigure(b, "fig09") }
func BenchmarkFig10UpdateInterval(b *testing.B)      { benchFigure(b, "fig10") }
func BenchmarkFig11Applications(b *testing.B)        { benchFigure(b, "fig11") }
func BenchmarkFig12Interference(b *testing.B)        { benchFigure(b, "fig12") }
func BenchmarkAblationMCS(b *testing.B)              { benchFigure(b, "ablation-mcs") }
func BenchmarkAblationControl(b *testing.B)          { benchFigure(b, "ablation-control") }

// BenchmarkSimTM1 reports the simulated transaction rate and the
// simulator's own event throughput for the reference configuration.
func BenchmarkSimTM1(b *testing.B) {
	var txns uint64
	var events uint64
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		w := workload.NewWorld(42, 16)
		d := workload.NewTM1(w, workload.TM1Config{Subscribers: 2000})
		r := workload.Measure(w, d, "tp-mcs", 15, 5*time.Millisecond, 20*time.Millisecond)
		txns += r.Ops
		events += w.K.Stepped
		virtual += 25 * time.Millisecond
	}
	b.ReportMetric(float64(txns)/virtual.Seconds(), "txn/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "simev/s")
}

// benchSimLock measures contended handoff cost per lock algorithm on
// the simulated machine (4 contexts, 8 threads, tiny critical section).
func benchSimLock(b *testing.B, f locks.Factory, lc bool) {
	var acquires uint64
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		w := workload.NewWorld(42, 4)
		ff := f
		if lc {
			ctl := core.NewController(w.P, core.Options{})
			ctl.Start()
			ff = core.Factory(ctl)
		}
		d := workload.NewMicro(w, ff)
		d.Delay = 2 * time.Microsecond
		r := workload.Measure(w, d, "bench", 8, 2*time.Millisecond, 10*time.Millisecond)
		acquires += r.Ops
		virtual += 10 * time.Millisecond
	}
	b.ReportMetric(float64(acquires)/virtual.Seconds(), "acquire/s")
}

func BenchmarkSimLockTATAS(b *testing.B)    { benchSimLock(b, locks.NewTATAS, false) }
func BenchmarkSimLockBackoff(b *testing.B)  { benchSimLock(b, locks.NewBackoff, false) }
func BenchmarkSimLockTicket(b *testing.B)   { benchSimLock(b, locks.NewTicket, false) }
func BenchmarkSimLockMCS(b *testing.B)      { benchSimLock(b, locks.NewMCS, false) }
func BenchmarkSimLockTPMCS(b *testing.B)    { benchSimLock(b, locks.NewTPMCS, false) }
func BenchmarkSimLockAdaptive(b *testing.B) { benchSimLock(b, locks.NewAdaptiveMutex, false) }
func BenchmarkSimLockBlocking(b *testing.B) { benchSimLock(b, locks.NewBlockingMutex, false) }
func BenchmarkSimLockLC(b *testing.B)       { benchSimLock(b, locks.NewTPMCS, true) }

// BenchmarkGolcMutexUncontended measures the real library's fast path.
func BenchmarkGolcMutexUncontended(b *testing.B) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	mu := golc.NewMutex(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section is the benchmark
	}
}

// benchGolcUncontendedPolicy is the API-redesign no-regression check:
// the uncontended Lock/Unlock path of the unified Mutex must not
// depend on which policy is installed (the fast path never consults
// it). Recorded per built-in in BENCH_4.json against the PR 4
// dedicated types.
func benchGolcUncontendedPolicy(b *testing.B, pol golc.ContentionPolicy) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	mu := golc.New("bench-uncontended", golc.WithPolicy(pol), golc.WithRuntime(rt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section is the benchmark
	}
}

func BenchmarkGolcUncontendedSpin(b *testing.B)  { benchGolcUncontendedPolicy(b, golc.Spin) }
func BenchmarkGolcUncontendedBlock(b *testing.B) { benchGolcUncontendedPolicy(b, golc.Block) }
func BenchmarkGolcUncontendedLC(b *testing.B)    { benchGolcUncontendedPolicy(b, golc.LoadControlled) }

// benchGolcUncontendedObs is the flight-recorder overhead check:
// uncontended Lock/Unlock with the recorder enabled (the default —
// sampled hold stamps plus a per-acquire sequence bump) versus
// disabled. The On/Off pair is recorded in BENCH_5.json; the
// instrumented path must stay within 2% of the uninstrumented one.
// lcbench -obscheck gates the same number in CI.
func benchGolcUncontendedObs(b *testing.B, enabled bool) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	rt.Recorder().SetEnabled(enabled)
	mu := golc.New("bench-obs", golc.WithRuntime(rt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section is the benchmark
	}
}

func BenchmarkGolcUncontendedObsOn(b *testing.B)  { benchGolcUncontendedObs(b, true) }
func BenchmarkGolcUncontendedObsOff(b *testing.B) { benchGolcUncontendedObs(b, false) }

// BenchmarkGolcRWUncontended: same check for the unified RWMutex
// (write then read acquire per iteration).
func BenchmarkGolcRWUncontended(b *testing.B) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	mu := golc.NewRW("bench-rw-uncontended", golc.WithRuntime(rt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock()
		mu.RLock()
		mu.RUnlock()
	}
}

// BenchmarkGolcMutexContended measures the real library under
// oversubscription (parallelism x8).
func BenchmarkGolcMutexContended(b *testing.B) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	mu := golc.NewMutex(rt)
	shared := 0
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			shared++
			mu.Unlock()
		}
	})
	if shared == 0 {
		b.Fatal("no work done")
	}
}

// benchManyLocks contends 64 locks from oversubscribed workers in the
// paper's overload regime (OS threads >> CPUs, so latch holders get
// descheduled mid-critical-section and convoys form). With shared=true
// one process-wide runtime governs all of them (the new design); with
// shared=false every lock gets a private runtime (the old
// per-lock-controller design, kept as the comparison baseline).
func benchManyLocks(b *testing.B, shared bool) {
	const nLocks = 64
	prev := runtime.GOMAXPROCS(8 * runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	var rts []*lcrt.Runtime
	newRT := func() *lcrt.Runtime {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		rts = append(rts, rt)
		return rt
	}
	var sharedRT *lcrt.Runtime
	if shared {
		sharedRT = newRT()
	}
	locks := make([]*golc.Mutex, nLocks)
	counters := make([]int, nLocks)
	for i := range locks {
		rt := sharedRT
		if !shared {
			rt = newRT()
		}
		locks[i] = golc.NewNamedMutex(rt, fmt.Sprintf("bench-%03d", i))
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	var next atomic.Uint64
	b.SetParallelism(16) // goroutines >> CPUs (on top of the raised GOMAXPROCS)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % nLocks
		mu := locks[id]
		for pb.Next() {
			mu.Lock()
			counters[id]++
			mu.Unlock()
		}
	})
	b.StopTimer()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != b.N {
		b.Fatalf("lost updates: %d != %d", total, b.N)
	}
}

// BenchmarkGolcSharedRuntime64Locks: 64 locks, ONE controller goroutine.
func BenchmarkGolcSharedRuntime64Locks(b *testing.B) { benchManyLocks(b, true) }

// BenchmarkGolcPerLockRuntime64Locks: 64 locks, 64 controller goroutines.
func BenchmarkGolcPerLockRuntime64Locks(b *testing.B) { benchManyLocks(b, false) }

// benchAdversarialHandoff is the stranded-lock scenario measured
// precisely: a constant LoadFunc stands in for a hot lock's spinners
// (keeping the sleep target high with no sensor noise), the cold
// lock's only waiter parks, and each iteration times one
// unlock-to-reacquire handoff. With the unlock-side wake the handoff
// is microseconds; with it disabled (the timeout-only original
// design) the lock sits free until the 100ms safety timeout.
func benchAdversarialHandoff(b *testing.B, disableWake bool) {
	rt := lcrt.New(lcrt.Options{
		Interval:          time.Millisecond,
		LoadFunc:          func() int { return 64 },
		DisableUnlockWake: disableWake,
	})
	rt.Start()
	defer rt.Stop()
	mu := golc.NewNamedMutex(rt, "cold")

	stop := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }
	// Fatalf exits through this goroutine's defers: without stopAll the
	// waiter would spin forever and skew every later benchmark.
	defer stopAll()
	var wg sync.WaitGroup
	// Release timestamps are monotonic nanoseconds since t0 (never 0 on
	// a release, which lets 0 mean "no pending measurement"): wall-clock
	// UnixNano differences would let an NTP step corrupt the samples.
	t0 := time.Now()
	var relNs atomic.Int64
	handoff := make(chan time.Duration, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if rel := relNs.Swap(0); rel != 0 {
				handoff <- time.Since(t0) - time.Duration(rel)
			} else {
				// Inter-round acquisition: back off so the holder can
				// take the lock and start the next round.
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				continue
			}
			mu.Unlock()
		}
	}()

	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		// Wait until the waiter has parked (it is the only possible
		// sleeper on this runtime).
		deadline := time.Now().Add(5 * time.Second)
		for rt.Snapshot().Sleeping == 0 {
			if time.Now().After(deadline) {
				mu.Unlock() // let the waiter observe stop and drain
				b.Fatalf("waiter never parked: %+v", rt.Snapshot())
			}
			time.Sleep(200 * time.Microsecond)
		}
		relNs.Store(int64(time.Since(t0)))
		mu.Unlock()
		select {
		case d := <-handoff:
			samples = append(samples, d)
		case <-time.After(5 * time.Second):
			b.Fatalf("handoff never completed: %+v", rt.Snapshot())
		}
	}
	b.StopTimer()
	stopAll()
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p float64) float64 {
		return float64(samples[int(p*float64(len(samples)-1))].Nanoseconds())
	}
	b.ReportMetric(q(0.50), "handoff-p50-ns")
	b.ReportMetric(q(0.99), "handoff-p99-ns")
	st := mu.Stats()
	b.ReportMetric(float64(st.UnlockWakes), "unlock-wakes")
	b.ReportMetric(float64(st.TimeoutWakes), "timeout-wakes")
	if !disableWake && st.UnlockWakes == 0 {
		b.Fatal("unlock-side wake never fired in the adversarial scenario")
	}
}

// BenchmarkGolcAdversarialUnlockWake: handoff with the unlock-side
// wake (this PR's design).
func BenchmarkGolcAdversarialUnlockWake(b *testing.B) { benchAdversarialHandoff(b, false) }

// BenchmarkGolcAdversarialTimeoutOnly: the before picture — the same
// scenario with only controller wakes and the safety timeout.
func BenchmarkGolcAdversarialTimeoutOnly(b *testing.B) { benchAdversarialHandoff(b, true) }

// BenchmarkGolcVsSyncMutex compares against the standard library under
// the same contention for reference.
func BenchmarkGolcVsSyncMutex(b *testing.B) {
	var mu sync.Mutex
	shared := 0
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			shared++
			mu.Unlock()
		}
	})
	if shared == 0 {
		b.Fatal("no work done")
	}
}

// benchKVStore builds a loaded store on a private runtime for the KV
// benchmarks, returning the precomputed key and value sets so the hot
// loops measure latch behavior, not fmt.Sprintf.
func benchKVStore(b *testing.B, mode kv.LockMode) (*kv.Store, []string, []string) {
	b.Helper()
	opts := kv.Options{Shards: 16, IndexStripes: 8, Mode: mode}
	if mode == kv.LoadControlled {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		b.Cleanup(rt.Stop)
		opts.Runtime = rt
	}
	s := kv.New(opts)
	b.Cleanup(s.Close)
	// 15 values, not 16: coprime with the 4096-key space, so Put
	// benchmarks actually change values over time and exercise the
	// secondary-index reindex (stripe latch) path.
	keys := make([]string, 4096)
	vals := make([]string, 15)
	for i := range vals {
		vals[i] = fmt.Sprintf("tier-%d", i)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%05d", i)
		s.Put(keys[i], vals[i%len(vals)])
	}
	return s, keys, vals
}

// benchWorkerStart staggers each RunParallel goroutine's position in
// the key sequence so workers spread across shards instead of hitting
// the same key in lockstep.
var benchWorkerStart atomic.Uint64

func benchStart() int { return int(benchWorkerStart.Add(1)) * 257 }

// BenchmarkKVGet measures point reads under oversubscription.
func BenchmarkKVGet(b *testing.B) {
	s, keys, _ := benchKVStore(b, kv.LoadControlled)
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := benchStart()
		for pb.Next() {
			s.Get(keys[i%len(keys)])
			i++
		}
	})
}

// BenchmarkKVPut measures writes (shard latch + index maintenance).
func BenchmarkKVPut(b *testing.B) {
	s, keys, vals := benchKVStore(b, kv.LoadControlled)
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := benchStart()
		for pb.Next() {
			s.Put(keys[i%len(keys)], vals[i%len(vals)])
			i++
		}
	})
}

// benchKVMixed is the serving mix: 80% get, 15% put, 5% lookup.
func benchKVMixed(b *testing.B, mode kv.LockMode) {
	s, keys, vals := benchKVStore(b, mode)
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := benchStart()
		for pb.Next() {
			switch i % 20 {
			case 0, 1, 2:
				s.Put(keys[i%len(keys)], vals[i%len(vals)])
			case 3:
				s.Lookup(vals[i%len(vals)])
			default:
				s.Get(keys[i%len(keys)])
			}
			i++
		}
	})
}

func BenchmarkKVMixedLoadControl(b *testing.B) { benchKVMixed(b, kv.LoadControlled) }
func BenchmarkKVMixedSpin(b *testing.B)        { benchKVMixed(b, kv.Spin) }
func BenchmarkKVMixedStd(b *testing.B)         { benchKVMixed(b, kv.Std) }

// benchOLTPTATP runs the TATP-style transactional mix (internal/oltp:
// hierarchical 2PL + wait-die over the kv store) at oversubscription,
// per latch mode. Each iteration is one committed transaction
// (including any wait-die retries); aborts/op reports how much
// deadlock-avoidance work the mode generated along the way.
func benchOLTPTATP(b *testing.B, mode kv.LockMode) {
	prev := runtime.GOMAXPROCS(8 * runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	kvOpts := kv.Options{Shards: 16, IndexStripes: 8, Mode: mode}
	dbOpts := oltp.Options{MaxRetries: -1}
	if mode == kv.LoadControlled {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		b.Cleanup(rt.Stop)
		kvOpts.Runtime = rt
		dbOpts.Runtime = rt
	}
	store := kv.New(kvOpts)
	b.Cleanup(store.Close)
	db := oltp.New(store, dbOpts)
	b.Cleanup(db.Close)
	w := oltp.NewTATP(db, oltp.TATPConfig{Subscribers: 1024, HotAccessFrac: 0.6})
	var seed atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1) * 7919))
		for pb.Next() {
			kind := w.PickKind(rng)
			if err := w.Run(kind, rng); err != nil {
				b.Errorf("%v failed terminally: %v", kind, err)
				return
			}
		}
	})
	b.StopTimer()
	m := db.Metrics()
	if m.Commits == 0 {
		b.Fatal("no transactions committed")
	}
	b.ReportMetric(float64(m.Aborts)/float64(b.N), "aborts/op")
}

func BenchmarkOLTPTATPLoadControl(b *testing.B) { benchOLTPTATP(b, kv.LoadControlled) }
func BenchmarkOLTPTATPSpin(b *testing.B)        { benchOLTPTATP(b, kv.Spin) }
func BenchmarkOLTPTATPStd(b *testing.B)         { benchOLTPTATP(b, kv.Std) }

// benchOLTPConflict runs the multi-statement conflict mix (internal/
// oltp: overlapping read-modify-write record sets in random order —
// the deadlock-prone shape) under one deadlock policy at
// oversubscription. Each iteration is one committed transaction
// including its retries; aborts/op and escalations/op report how much
// conflict-resolution work the policy did. Keeping both policy
// benchmarks in the tree means CI's -benchtime 1x smoke compiles and
// runs both code paths on every push.
func benchOLTPConflict(b *testing.B, policyName string) {
	prev := runtime.GOMAXPROCS(8 * runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	pol, err := oltp.NewPolicy(policyName)
	if err != nil {
		b.Fatal(err)
	}
	store := kv.New(kv.Options{Shards: 16, IndexStripes: 8, Mode: kv.Std})
	b.Cleanup(store.Close)
	// Threshold below RecordsPerTxn/partition so the escalation path
	// runs too — otherwise escalations/op is a constant 0 and CI's
	// -benchtime 1x smoke never exercises the fold-in under -bench.
	db := oltp.New(store, oltp.Options{MaxRetries: -1, DeadlockPolicy: pol, EscalationThreshold: 8})
	b.Cleanup(db.Close)
	w := oltp.NewConflict(db, oltp.ConflictConfig{
		Partitions:       4,
		RecordsPerTxn:    16,
		SpreadPartitions: 1,
		OverlapFrac:      0.5,
		WriteFrac:        0.5,
	})
	var seed atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1) * 104729))
		for pb.Next() {
			if err := w.Run(rng); err != nil {
				b.Errorf("conflict txn failed terminally: %v", err)
				return
			}
		}
	})
	b.StopTimer()
	m := db.Metrics()
	if m.Commits == 0 {
		b.Fatal("no transactions committed")
	}
	if n := db.LockEntries(); n != 0 {
		b.Fatalf("quiescent lock table has %d entries", n)
	}
	b.ReportMetric(float64(m.Aborts)/float64(b.N), "aborts/op")
	b.ReportMetric(float64(m.Escalations)/float64(b.N), "escalations/op")
}

func BenchmarkOLTPConflictWaitDie(b *testing.B) { benchOLTPConflict(b, "waitdie") }
func BenchmarkOLTPConflictDetect(b *testing.B)  { benchOLTPConflict(b, "detect") }

// BenchmarkKVScan measures prefix scans (one shard latch at a time).
func BenchmarkKVScan(b *testing.B) {
	s, _, _ := benchKVStore(b, kv.LoadControlled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Scan("user:000", 0); len(got) != 100 {
			b.Fatalf("scan matched %d", len(got))
		}
	}
}

// BenchmarkKernelEvents measures raw event-loop throughput.
func BenchmarkKernelEvents(b *testing.B) {
	w := workload.NewWorld(1, 1)
	n := 0
	var tick func()
	tick = func() {
		n++
		w.K.After(time.Microsecond, tick)
	}
	w.K.After(time.Microsecond, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.K.RunFor(time.Microsecond)
	}
	if n == 0 {
		b.Fatal("no events")
	}
}

// Example of regenerating a figure programmatically (also acts as a
// compile-checked usage snippet for the README).
func ExampleRun() {
	cfg := experiments.Quick()
	cfg.Warmup = 2 * time.Millisecond
	cfg.Window = 5 * time.Millisecond
	f, err := experiments.Run("ablation-control", cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(f.ID)
	// Output: ablation-control
}
