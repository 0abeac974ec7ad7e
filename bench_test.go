// Package repro's simulator benchmarks: one benchmark per paper figure
// (regenerating the figure at reduced scale each iteration and reporting
// domain metrics) plus microbenchmarks of the simulator itself. The
// real stack is measured by lcperf (bash benchmark/run.sh); the only
// real-stack benchmarks here are the two paths lcperf does not run —
// the conflict workload under both deadlock policies with escalation,
// and kv prefix scans.
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
	store := kv.New(kv.Options{Shards: 16, IndexStripes: 8, Policy: golc.Block})
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
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	b.Cleanup(rt.Stop)
	s := kv.New(kv.Options{Shards: 16, IndexStripes: 8, Runtime: rt})
	b.Cleanup(s.Close)
	for i := 0; i < 4096; i++ {
		s.Put(fmt.Sprintf("user:%05d", i), fmt.Sprintf("tier-%d", i%15))
	}
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
