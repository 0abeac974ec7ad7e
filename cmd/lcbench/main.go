// Command lcbench drives the real (non-simulated) load-controlled locks
// from internal/golc on the host machine: N goroutines hammer L locks
// with a configurable critical section and think time, with or without
// load control, and the tool reports throughput plus the shared
// runtime's controller activity.
//
// The -locks flag is the point of the shared runtime: 64 contended
// locks still cost one controller goroutine and one sensor. The
// -perlock flag reproduces the old design (a private runtime per lock)
// for comparison.
//
// The -adversarial flag runs the unlock-side-wake scenario instead:
// one hot lock's waiters (more than there are Ps) keep the global
// sleep target high while a second (cold) lock's waiters all park; the
// tool measures the unlock-to-reacquire handoff latency of the cold
// lock. With the unlock-side wake (default) the handoff is
// microseconds; with -nowake (the paper's original timeout-only design)
// the cold lock sits free until the 100ms safety timeout.
//
// The -oltp flag runs a transactional workload from internal/oltp
// instead: a hierarchical lock manager and strict-2PL transactions
// over the kv store, swept across spin, block (sync.RWMutex) and
// load-control latch modes at a multiprogramming level of -mp x
// NumCPU (default 8x — the paper's overload regime), reporting
// commit/abort throughput and p50/p99 commit latency per mode. This is
// the paper's Shore-MT experiment shape on real hardware: transactions
// hold several logical locks at once while every physical latch under
// them is governed (or not) by the load controller.
//
// Two -oltp workloads: -workload tatp (default) is the TATP-style
// read-heavy mix; -workload conflict is the multi-statement conflict
// shape — each transaction read-modify-writes -records records across
// -parts partitions with -overlap of the touches on a shared hot set,
// in random order. The conflict shape is where the deadlock policies
// (-policy waitdie|detect) and record→partition lock escalation
// (-escalate N, -1 to disable) actually diverge; the tool reports the
// abort split (wait-die vs detected vs timeout), escalations, and the
// live lock-table entry census alongside throughput.
//
// Contention policies: without -oltp, -policy selects the golc
// contention policy by registry name (spin, block, lc; default derived
// from -lc). With -oltp, -policy is the DEADLOCK policy (waitdie or
// detect) and the contention policy is swept (spin, block, lc — one
// phase each). The -swap-at flag runs the hot-swap scenario instead:
// start every lock under -swap-from (default spin), flip them live to
// -swap-to (default lc) that far into the measurement window via
// SetPolicy, and report throughput before and after the flip — without
// -oltp in acquires/s, with -oltp in commit/s of a single phase.
//
// Usage:
//
//	lcbench -goroutines 64 -locks 8 -cs 500ns -think 2us -duration 3s -lc
//	lcbench -policy block          # same hammer under the block policy
//	lcbench -swap-at 1s            # hot-swap spin->lc mid-run
//	lcbench -adversarial
//	lcbench -adversarial -nowake   # ablation: timeout-only wakes
//	lcbench -oltp                  # TATP mix, spin vs block vs load-control
//	lcbench -oltp -mp 16 -subs 8192 -hot 0.8
//	lcbench -oltp -workload conflict -policy detect
//	lcbench -oltp -workload conflict -records 96 -parts 1 -escalate -1
//	lcbench -oltp -swap-at 1s      # one phase, latches flipped spin->lc
//	lcbench -oltp -durable         # commits group-commit through a WAL
//
// The -durable flag (with -oltp) makes every commit run the
// write-ahead-log group-commit protocol from internal/wal: each phase
// opens a fresh log in a temp directory (removed afterwards), commits
// append their write-set and wait — through the phase's contention
// policy — for their group's fsync, and the phase report adds the
// commits-per-fsync group-size distribution and fsync latency. This is
// the durable-vs-volatile sweep behind BENCH_6.json: the contended
// population shifts from latches to log waiters, and the policies are
// compared on exactly that population.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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
		n           = flag.Int("goroutines", 4*runtime.GOMAXPROCS(0), "worker goroutines")
		nlocks      = flag.Int("locks", 1, "contended locks (workers round-robin across them)")
		cs          = flag.Duration("cs", 500*time.Nanosecond, "critical section length")
		think       = flag.Duration("think", 2*time.Microsecond, "think time between acquires")
		duration    = flag.Duration("duration", 3*time.Second, "measurement duration")
		useLC       = flag.Bool("lc", true, "enable load control")
		perLock     = flag.Bool("perlock", false, "old design: one private runtime per lock instead of one shared")
		adversarial = flag.Bool("adversarial", false, "run the hot-lock/cold-lock unlock-wake scenario instead")
		noWake      = flag.Bool("nowake", false, "with -adversarial: disable the unlock-side wake (timeout-only baseline)")
		oltpMode    = flag.Bool("oltp", false, "run a transactional workload (spin vs block vs load-control) instead")
		mp          = flag.Int("mp", 8, "with -oltp: multiprogramming level as a multiple of NumCPU (GOMAXPROCS = mp x NumCPU)")
		subs        = flag.Int("subs", 4096, "with -oltp: TATP subscriber population")
		hot         = flag.Float64("hot", 0.6, "with -oltp: fraction of transactions aimed at the hot subscriber set")
		workload    = flag.String("workload", "tatp", "with -oltp: workload shape, tatp or conflict")
		policy      = flag.String("policy", "", "with -oltp: deadlock policy (waitdie or detect; default waitdie); without: contention policy (spin, block, lc; default from -lc)")
		swapAt      = flag.Duration("swap-at", 0, "hot-swap scenario: flip every lock's contention policy this far into the measurement window (0: off)")
		swapFrom    = flag.String("swap-from", "spin", "with -swap-at: contention policy before the flip")
		swapTo      = flag.String("swap-to", "lc", "with -swap-at: contention policy after the flip")
		escalate    = flag.Int("escalate", 0, "with -oltp: record->partition escalation threshold (0: default 64; <0: disabled)")
		traceFl     = flag.String("trace", "", "write the run's flight-recorder events as Chrome trace JSON (Perfetto) to this file; works in every mode, one trace process per phase/runtime")
		blameFl     = flag.Bool("blame", false, "print each phase's who-blocks-whom blame leaderboard (sampled waiter/holder acquire sites); works in every mode")
		obscheck    = flag.Bool("obscheck", false, "measure flight-recorder overhead on the uncontended Lock/Unlock path (enabled vs disabled) and exit 1 if it exceeds -obs-maxpct")
		obsMaxPct   = flag.Float64("obs-maxpct", 5, "with -obscheck: maximum tolerated overhead in percent")
		durableFl   = flag.Bool("durable", false, "with -oltp: commit through a write-ahead log (group commit + fsync; a fresh temp log per phase, removed afterwards)")
		records     = flag.Int("records", 16, "with -workload conflict: records touched per transaction")
		parts       = flag.Int("parts", 4, "with -workload conflict: partitions the key population spans")
		spread      = flag.Int("spread", 0, "with -workload conflict: partitions ONE transaction's records span (0: all of -parts; 1 concentrates each transaction — the escalation shape)")
		overlap     = flag.Float64("overlap", 0.5, "with -workload conflict: fraction of touches on the shared hot set")
		writeFrac   = flag.Float64("writefrac", 0.5, "with -workload conflict: fraction of touches that read-modify-write")
	)
	flag.Parse()
	tracePath = *traceFl
	blameOn = *blameFl
	if *obscheck {
		runObsCheck(*obsMaxPct)
		return
	}
	if *oltpMode {
		workers := 0 // auto: 4x the raised GOMAXPROCS
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "goroutines" {
				workers = *n
			}
		})
		if *workload != "tatp" && *workload != "conflict" {
			fmt.Fprintf(os.Stderr, "lcbench: unknown -workload %q (want tatp or conflict)\n", *workload)
			os.Exit(2)
		}
		dlPolicy := *policy
		if dlPolicy == "" {
			dlPolicy = "waitdie"
		}
		if _, err := oltp.NewPolicy(dlPolicy); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runOLTP(oltpConfig{
			workload:  *workload,
			policy:    dlPolicy,
			durable:   *durableFl,
			escalate:  *escalate,
			workers:   workers,
			mp:        *mp,
			subs:      *subs,
			hot:       *hot,
			records:   *records,
			parts:     *parts,
			spread:    *spread,
			overlap:   *overlap,
			writeFrac: *writeFrac,
			duration:  *duration,
			swapAt:    *swapAt,
			swapFrom:  *swapFrom,
			swapTo:    *swapTo,
		})
		return
	}
	if *durableFl {
		fmt.Fprintln(os.Stderr, "lcbench: -durable requires -oltp")
		os.Exit(2)
	}
	if *adversarial {
		runAdversarial(*n, *duration, *noWake)
		return
	}
	if *noWake {
		fmt.Fprintln(os.Stderr, "lcbench: -nowake requires -adversarial")
		os.Exit(2)
	}
	if *nlocks < 1 {
		fmt.Fprintln(os.Stderr, "lcbench: -locks must be >= 1")
		os.Exit(2)
	}

	// Contention policy: -policy wins; otherwise -lc picks lc or spin.
	// The hot-swap scenario names its starting policy with -swap-from,
	// so a -policy alongside -swap-at is a conflict, not an override.
	if *policy != "" && *swapAt > 0 {
		fmt.Fprintln(os.Stderr, "lcbench: -policy conflicts with -swap-at; name the starting policy with -swap-from")
		os.Exit(2)
	}
	polName := "spin"
	if *useLC {
		polName = "lc"
	}
	if *policy != "" {
		polName = *policy
	}
	if *swapAt > 0 {
		polName = *swapFrom
	}
	pol, err := golc.PolicyByName(polName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcbench:", err)
		os.Exit(2)
	}
	if *perLock && pol.Name() != "lc" {
		fmt.Fprintln(os.Stderr, "lcbench: -perlock requires the lc policy")
		os.Exit(2)
	}
	var swapPol golc.ContentionPolicy
	if *swapAt > 0 {
		if swapPol, err = golc.PolicyByName(*swapTo); err != nil {
			fmt.Fprintln(os.Stderr, "lcbench:", err)
			os.Exit(2)
		}
		if *swapAt >= *duration {
			fmt.Fprintln(os.Stderr, "lcbench: -swap-at must fall inside -duration")
			os.Exit(2)
		}
	}

	var rts []*lcrt.Runtime
	newRT := func() *lcrt.Runtime {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		rts = append(rts, rt)
		return rt
	}
	locks := make([]*golc.Mutex, *nlocks)
	shared := newRT()
	for i := range locks {
		rt := shared
		if *perLock {
			rt = newRT()
		}
		locks[i] = golc.New(fmt.Sprintf("bench-%03d", i),
			golc.WithPolicy(pol), golc.WithRuntime(rt))
	}

	var ops atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(mu *golc.Mutex) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				spinFor(*cs)
				mu.Unlock()
				ops.Add(1)
				spinFor(*think)
			}
		}(locks[i%len(locks)])
	}

	time.Sleep(*duration / 4) // warmup
	start := ops.Load()
	t0 := time.Now()
	var preOps, postOps uint64
	var preDur, postDur time.Duration
	if *swapAt > 0 {
		// The hot-swap scenario: flip every lock live mid-window.
		time.Sleep(*swapAt)
		preOps = ops.Load() - start
		preDur = time.Since(t0)
		for _, mu := range locks {
			mu.SetPolicy(swapPol)
		}
		mid := ops.Load()
		tMid := time.Now()
		time.Sleep(*duration - *swapAt)
		postOps = ops.Load() - mid
		postDur = time.Since(tMid)
	} else {
		time.Sleep(*duration)
	}
	delta := ops.Load() - start
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()

	mode := polName
	if pol.Name() == "lc" {
		mode = "load-control/shared"
		if *perLock {
			mode = "load-control/per-lock"
		}
	}
	if *swapAt > 0 {
		mode = fmt.Sprintf("swap(%s->%s@%v)", pol.Name(), swapPol.Name(), *swapAt)
	}
	fmt.Printf("mode=%s goroutines=%d locks=%d gomaxprocs=%d cs=%v think=%v\n",
		mode, *n, *nlocks, runtime.GOMAXPROCS(0), *cs, *think)
	fmt.Printf("throughput: %.0f acquires/s (%d in %v)\n",
		float64(delta)/elapsed.Seconds(), delta, elapsed.Round(time.Millisecond))
	if *swapAt > 0 {
		fmt.Printf("hot-swap: before=%.0f acquires/s (%v under %s)  after=%.0f acquires/s (%v under %s)\n",
			float64(preOps)/preDur.Seconds(), preDur.Round(time.Millisecond), pol.Name(),
			float64(postOps)/postDur.Seconds(), postDur.Round(time.Millisecond), swapPol.Name())
	}
	var agg lcrt.Snapshot
	for i, rt := range rts {
		if len(rts) == 1 {
			tracePhase("hammer", rt)
		} else {
			tracePhase(fmt.Sprintf("hammer/rt-%02d", i), rt)
		}
		s := rt.Snapshot()
		agg.Updates += s.Updates
		agg.Claims += s.Claims
		agg.ForcedClaims += s.ForcedClaims
		agg.ControllerWakes += s.ControllerWakes
		agg.UnlockWakes += s.UnlockWakes
		agg.TimeoutWakes += s.TimeoutWakes
		agg.Cancels += s.Cancels
		agg.LocksRegistered += s.LocksRegistered
		rt.Stop()
	}
	fmt.Printf("controller(s)=%d: updates=%d claims=%d forced=%d wakes[controller=%d unlock=%d timeout=%d] cancels=%d locks=%d\n",
		len(rts), agg.Updates, agg.Claims, agg.ForcedClaims, agg.ControllerWakes, agg.UnlockWakes, agg.TimeoutWakes,
		agg.Cancels, agg.LocksRegistered)
	writeTrace()
}

// tracePath is the -trace destination ("" = tracing off); traceProcs
// accumulates one Chrome-trace process per phase/runtime until
// writeTrace flushes them. blameOn is the -blame switch. lcbench is
// single-threaded outside its worker pools, so plain package state
// suffices.
var (
	tracePath  string
	traceProcs []obs.TraceProc
	blameOn    bool
)

// tracePhase is the end-of-phase reporting hook: it drains the
// flight-recorder ring of one phase's runtime into the pending trace
// under its own process id (so phases that reuse timestamps near zero
// land on separate Perfetto track groups instead of colliding), and
// with -blame prints the phase's blame leaderboard.
func tracePhase(name string, rt *lcrt.Runtime) {
	if blameOn {
		printBlame(name, rt)
	}
	if tracePath == "" {
		return
	}
	traceProcs = append(traceProcs, obs.TraceProc{
		Pid:    len(traceProcs) + 1,
		Name:   name,
		Events: rt.Recorder().Ring().Since(0),
	})
}

// printBlame renders one phase's who-blocks-whom leaderboard: the top
// blame edges (waiter site, holder site, lock) by blocked time. Edges
// are sampled (obs.DefaultBlameSampling), so the counts undercount by
// the sampling rate; the RANKING is what the report is for.
func printBlame(name string, rt *lcrt.Runtime) {
	rec := rt.Recorder()
	top := rec.BlameTop(10)
	if len(top) == 0 {
		fmt.Printf("blame[%s]: no sampled contention\n", name)
		return
	}
	fmt.Printf("blame[%s]: top blocked->blamed edges (1-in-%d sampling, dropped=%d)\n",
		name, rec.BlameSampling(), rec.BlameDropped())
	for _, e := range top {
		holder := e.Holder
		if holder == "" {
			holder = "unknown"
		}
		fmt.Printf("  %-42s <- %-42s lock=%-16s blocks=%-6d blocked=%v\n",
			e.Waiter, holder, e.Lock, e.Count, time.Duration(e.Ns).Round(time.Microsecond))
	}
}

// writeTrace flushes the collected phases to -trace as Chrome trace
// JSON. Load the file at ui.perfetto.dev or chrome://tracing.
func writeTrace() {
	if tracePath == "" {
		return
	}
	f, err := os.Create(tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcbench: -trace:", err)
		os.Exit(1)
	}
	n := 0
	for _, p := range traceProcs {
		n += len(p.Events)
	}
	if err := obs.WriteChromeTrace(f, traceProcs); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcbench: -trace:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: wrote %d events (%d process(es)) to %s\n", n, len(traceProcs), tracePath)
}

// runObsCheck is the CI overhead gate for the flight recorder: time the
// uncontended Lock/Unlock fast path with the recorder enabled and
// disabled (same binary, same loop — only Recorder.SetEnabled differs)
// and fail if enabled costs more than maxPct percent extra. Fixed
// iteration counts and best-of-3 keep scheduler noise from failing the
// gate spuriously: the best round is the cleanest look each
// configuration got at the hardware.
func runObsCheck(maxPct float64) {
	const (
		iters  = 10_000_000
		rounds = 3
	)
	measure := func(enabled bool) float64 {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		defer rt.Stop()
		rt.Recorder().SetEnabled(enabled)
		mu := golc.New("obscheck", golc.WithRuntime(rt))
		best := math.MaxFloat64
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				mu.Lock()
				mu.Unlock()
			}
			if ns := float64(time.Since(t0).Nanoseconds()) / iters; ns < best {
				best = ns
			}
		}
		return best
	}
	// Disabled first, then enabled: if anything warms up (CPU clocks,
	// branch predictors), the later configuration benefits — biasing
	// AGAINST the overhead we are trying to bound.
	off := measure(false)
	on := measure(true)
	pct := (on - off) / off * 100
	fmt.Printf("obscheck: uncontended lock/unlock disabled=%.2fns/op enabled=%.2fns/op overhead=%+.2f%% (max %.1f%%)\n",
		off, on, pct, maxPct)
	if pct > maxPct {
		fmt.Fprintln(os.Stderr, "lcbench: flight-recorder overhead exceeds the budget")
		os.Exit(1)
	}
	checkBlameCapture()
}

// checkBlameCapture is the functional half of the obscheck gate: the
// overhead loop above never contends, so it can never reach the blame
// code (which lives on the contended slow path). This companion check
// forces contention with blame sampling at 1 and asserts the recorder
// actually captured waiter sites — the site-sampling pipeline stays
// covered by the same CI entry point that bounds its cost.
func checkBlameCapture() {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	rt.Recorder().SetBlameSampling(1)
	mu := golc.New("obscheck-blame", golc.WithRuntime(rt))

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
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
				spinFor(2 * time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	edges := rt.Recorder().BlameEdges()
	fmt.Printf("obscheck: blame capture under contention: %d edge(s)\n", len(edges))
	if len(edges) == 0 {
		fmt.Fprintln(os.Stderr, "lcbench: no blame edges recorded under forced contention — site sampling is broken")
		os.Exit(1)
	}
}

// runAdversarial is the stranded-lock scenario: hotWorkers goroutines
// keep one lock hot (so the controller's sleep target stays high), a
// cold lock's waiters park, and a holder releases the cold lock over
// and over, timing how long the release takes to turn into the next
// acquisition.
func runAdversarial(hotWorkers int, duration time.Duration, noWake bool) {
	const coldWaiters = 2
	rt := lcrt.New(lcrt.Options{DisableUnlockWake: noWake})
	rt.Start()
	hot := golc.NewNamedMutex(rt, "hot")
	cold := golc.NewNamedMutex(rt, "cold")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hotWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hot.Lock()
				spinFor(5 * time.Microsecond)
				hot.Unlock()
			}
		}()
	}

	// relNs carries the release timestamp — monotonic nanoseconds since
	// t0, so wall-clock steps can't corrupt samples and 0 can mean "no
	// pending measurement" — from the holder to whichever cold waiter
	// acquires next; handoff carries the measured latency back (only
	// the Swap winner sends, so buffer 1 suffices).
	t0 := time.Now()
	var relNs atomic.Int64
	handoff := make(chan time.Duration, 1)
	for i := 0; i < coldWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cold.Lock()
				if rel := relNs.Swap(0); rel != 0 {
					select {
					case handoff <- time.Since(t0) - time.Duration(rel):
					default:
						// A stale sample from an aborted round still
						// occupies the buffer; drop rather than block
						// while holding the cold lock.
					}
				}
				cold.Unlock()
			}
		}()
	}

	var samples []time.Duration
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		// Drop any sample a previously-aborted round delivered late, so
		// it cannot be attributed to this round.
		select {
		case <-handoff:
		default:
		}
		cold.Lock()
		// Hold long enough for the cold waiters to finish their grace
		// spin and claim sleep slots.
		//lint:allow heldcall the convoy is the point: this benchmark manufactures a long hold to drive waiters into the parked regime
		time.Sleep(5 * time.Millisecond)
		relNs.Store(int64(time.Since(t0)))
		cold.Unlock()
		select {
		case d := <-handoff:
			samples = append(samples, d)
		case <-time.After(2 * time.Second):
			fmt.Fprintln(os.Stderr, "lcbench: cold lock stranded beyond 2s; aborting round")
		}
		// Settle past the safety timeout so any waiter left parked by
		// this round (only one gets the unlock wake) is awake again:
		// every round then measures a fresh all-parked handoff rather
		// than a stale sleeper's timeout.
		time.Sleep(120 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	snap := rt.Snapshot()
	cs := cold.Stats()
	tracePhase("adversarial", rt)
	rt.Stop()
	defer writeTrace()

	mode := "unlock-wake"
	if noWake {
		mode = "timeout-only"
	}
	fmt.Printf("adversarial mode=%s hot-goroutines=%d cold-waiters=%d gomaxprocs=%d rounds=%d\n",
		mode, hotWorkers, coldWaiters, runtime.GOMAXPROCS(0), len(samples))
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		q := func(p float64) time.Duration { return samples[int(p*float64(len(samples)-1))] }
		fmt.Printf("cold-lock handoff: p50=%v p99=%v max=%v\n", q(0.50), q(0.99), samples[len(samples)-1])
	}
	fmt.Printf("cold lock: blocks=%d wakes[controller=%d unlock=%d timeout=%d]\n",
		cs.Blocks, cs.ControllerWakes, cs.UnlockWakes, cs.TimeoutWakes)
	fmt.Printf("runtime: claims=%d wakes[controller=%d unlock=%d timeout=%d] cancels=%d slot-rejects=%d\n",
		snap.Claims, snap.ControllerWakes, snap.UnlockWakes, snap.TimeoutWakes, snap.Cancels, snap.SlotRejects)
}

// oltpConfig carries the -oltp sweep's knobs.
type oltpConfig struct {
	workload  string // tatp | conflict
	policy    string // waitdie | detect (the DEADLOCK policy)
	durable   bool   // commit through a WAL (fresh temp log per phase)
	escalate  int    // escalation threshold (0 default, <0 off)
	workers   int
	mp        int
	subs      int
	hot       float64
	records   int
	parts     int
	spread    int
	overlap   float64
	writeFrac float64
	duration  time.Duration
	swapAt    time.Duration // >0: hot-swap scenario (single phase)
	swapFrom  string        // contention policy before the flip
	swapTo    string        // contention policy after the flip
	// swapToPol is swapTo resolved once, up front, by runOLTP — the
	// phase must not discover a typo mid-measurement.
	swapToPol golc.ContentionPolicy
}

// oltpResult is one OLTP phase's outcome.
type oltpResult struct {
	label      string
	rate       float64 // commits/s
	abortsPS   float64
	p50, p99   time.Duration
	entriesMax int     // peak live lock-table entries sampled mid-run
	entriesAvg float64 // mean of the samples
	metrics    oltp.MetricsSnapshot
	snap       *lcrt.Snapshot
	// hist holds the flight recorder's commit-latency digest over the
	// measurement window — the cross-check that the histograms agree
	// with the directly sampled percentiles above.
	hist obs.HistSummary
	// wal holds the phase's log stats when -durable is on (group-size
	// and fsync-latency distributions are whole-phase, warmup included:
	// the log is private to the phase and batching has no warmup bias
	// worth a delta snapshot).
	wal *wal.Stats
	// Hot-swap scenario only: commit/s in the windows before and
	// after the SetPolicy flip.
	preRate, postRate float64
}

// runOLTP sweeps one transactional workload across the three latch
// modes at high multiprogramming. Per phase: a fresh store + DB +
// population, `workers` goroutines each running the mix, commit
// latency sampled per successful transaction (including its retries —
// the user-visible latency), plus a live lock-table census.
func runOLTP(cfg oltpConfig) {
	if cfg.mp > 0 {
		runtime.GOMAXPROCS(cfg.mp * runtime.NumCPU())
	}
	if cfg.workers <= 0 {
		cfg.workers = 4 * runtime.GOMAXPROCS(0)
	}
	shape := fmt.Sprintf("%d subscribers, hot-frac %.2f", cfg.subs, cfg.hot)
	if cfg.workload == "conflict" {
		shape = fmt.Sprintf("%d records/txn over %d partition(s), overlap %.2f, write-frac %.2f",
			cfg.records, cfg.parts, cfg.overlap, cfg.writeFrac)
	}
	durability := "volatile commits"
	if cfg.durable {
		durability = "durable commits (WAL group commit)"
	}
	fmt.Printf("oltp: %s workload, policy=%s escalation=%s, %s, %d workers, GOMAXPROCS=%d on %d CPU(s) "+
		"(%dx multiprogramming), %s, %v per phase\n\n",
		cfg.workload, cfg.policy, escalationLabel(cfg.escalate), durability, cfg.workers,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOMAXPROCS(0)/runtime.NumCPU(),
		shape, cfg.duration)

	if cfg.swapAt > 0 {
		// Hot-swap scenario: one phase, latches flipped live mid-run.
		// Validate BOTH policy names before any setup — a typo in
		// -swap-to must not burn the whole pre-swap window first.
		if cfg.swapAt >= cfg.duration {
			fmt.Fprintln(os.Stderr, "lcbench: -swap-at must fall inside -duration")
			os.Exit(2)
		}
		if _, err := golc.PolicyByName(cfg.swapFrom); err != nil {
			fmt.Fprintln(os.Stderr, "lcbench:", err)
			os.Exit(2)
		}
		var err error
		if cfg.swapToPol, err = golc.PolicyByName(cfg.swapTo); err != nil {
			fmt.Fprintln(os.Stderr, "lcbench:", err)
			os.Exit(2)
		}
		label := fmt.Sprintf("swap(%s->%s)", cfg.swapFrom, cfg.swapTo)
		r := runOLTPPhase(cfg.swapFrom, label, cfg)
		fmt.Printf("\nhot-swap at %v: before=%.0f commit/s (%s) after=%.0f commit/s (%s)\n",
			cfg.swapAt, r.preRate, cfg.swapFrom, r.postRate, cfg.swapTo)
		if r.preRate > 0 {
			fmt.Printf("after/before commit throughput: %.2fx\n", r.postRate/r.preRate)
		}
		writeTrace()
		return
	}

	results := []oltpResult{
		runOLTPPhase("spin", "spin", cfg),
		runOLTPPhase("block", "block", cfg),
		runOLTPPhase("lc", "load-control", cfg),
	}

	fmt.Println("\nsummary:")
	if cfg.durable {
		fmt.Printf("  %-14s %14s %12s %12s %12s %12s %10s %12s\n",
			"mode", "commit/s", "abort/s", "p50", "p99", "peak-locks", "grp/fsync", "fsync-p99")
		for _, r := range results {
			var grp float64
			var fp99 time.Duration
			if w := r.wal; w != nil && w.Syncs > 0 {
				grp = float64(w.Appends) / float64(w.Syncs)
				fp99 = time.Duration(w.SyncLatency.P99Ns).Round(time.Microsecond)
			}
			fmt.Printf("  %-14s %14.0f %12.1f %12v %12v %12d %10.1f %12v\n",
				r.label, r.rate, r.abortsPS, r.p50, r.p99, r.entriesMax, grp, fp99)
		}
	} else {
		fmt.Printf("  %-14s %14s %12s %12s %12s %12s\n", "mode", "commit/s", "abort/s", "p50", "p99", "peak-locks")
		for _, r := range results {
			fmt.Printf("  %-14s %14.0f %12.1f %12v %12v %12d\n",
				r.label, r.rate, r.abortsPS, r.p50, r.p99, r.entriesMax)
		}
	}
	spin, lc := results[0], results[2]
	if spin.rate > 0 {
		fmt.Printf("\nload-control / spin commit throughput: %.2fx\n", lc.rate/spin.rate)
	}
	if s := lc.snap; s != nil {
		fmt.Printf("controller: updates=%d claims=%d wakes[controller=%d unlock=%d timeout=%d] latches=%d\n",
			s.Updates, s.Claims, s.ControllerWakes, s.UnlockWakes, s.TimeoutWakes, s.LocksRegistered)
		for _, ls := range s.TopContended(3) {
			fmt.Printf("  contended latch %-16s parks=%d unlock-wakes=%d spins=%d\n",
				ls.Name, ls.Blocks, ls.UnlockWakes, ls.Spins)
		}
	}
	if lc.rate >= spin.rate {
		fmt.Println("\nresult: load control sustained commit throughput under oversubscription.")
	} else {
		fmt.Println("\nresult: WARNING — spin outperformed load control on this machine/configuration.")
	}
	writeTrace()
}

func escalationLabel(th int) string {
	switch {
	case th < 0:
		return "off"
	case th == 0:
		return fmt.Sprintf("%d", oltp.DefaultEscalationThreshold)
	default:
		return fmt.Sprintf("%d", th)
	}
}

// runOLTPPhase measures one contention policy end to end (latches are
// created under polName via the golc policy registry).
func runOLTPPhase(polName, label string, cfg oltpConfig) oltpResult {
	cpol, err := golc.PolicyByName(polName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcbench:", err)
		os.Exit(2)
	}
	// Every phase gets a private runtime: even the spin phase's
	// latches register (census and stats still flow), and the lc
	// phase's controller governs them.
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	kvOpts := kv.Options{Shards: 16, IndexStripes: 8, Policy: cpol, Runtime: rt}
	pol, err := oltp.NewPolicy(cfg.policy) // fresh instance per DB: the detector's graph is per-DB state
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// MaxRetries < 0 = unlimited: every transaction eventually commits
	// under its original timestamp, so throughput compares policies,
	// not give-up thresholds.
	dbOpts := oltp.Options{MaxRetries: -1, DeadlockPolicy: pol, EscalationThreshold: cfg.escalate, Runtime: rt}
	store := kv.New(kvOpts)
	// Durable phases commit through a fresh WAL on the phase's own
	// runtime and policy: the durability waits are governed by the same
	// ContentionPolicy under test as the latches, which is the point of
	// the sweep. The log lives in a temp dir discarded with the phase —
	// lcbench measures, it does not persist.
	var phaseLog *wal.Log
	if cfg.durable {
		walDir, err := os.MkdirTemp("", "lcbench-wal-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcbench:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(walDir)
		phaseLog, _, err = wal.Open(wal.Options{Dir: filepath.Join(walDir, "wal"), Runtime: rt, Policy: cpol}, store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcbench: wal:", err)
			os.Exit(2)
		}
		dbOpts.WAL = phaseLog
	}
	db := oltp.New(store, dbOpts)
	var runTxn func(rng *rand.Rand) error
	if cfg.workload == "conflict" {
		w := oltp.NewConflict(db, oltp.ConflictConfig{
			Partitions:       cfg.parts,
			RecordsPerTxn:    cfg.records,
			SpreadPartitions: cfg.spread,
			OverlapFrac:      cfg.overlap,
			WriteFrac:        cfg.writeFrac,
		})
		if label == "spin" { // first phase: echo what actually runs
			// NewConflict caps partitions at the shard count and grows
			// the per-partition population to fit the draw; report the
			// effective shape, not the raw flags.
			cc := w.Config()
			fmt.Printf("conflict shape (effective): %d records/txn, %d partition(s) x %d keys, "+
				"spread %d, overlap %.2f on %d hot keys/partition, write-frac %.2f\n\n",
				cc.RecordsPerTxn, cc.Partitions, cc.PerPartition,
				cc.SpreadPartitions, cc.OverlapFrac, cc.HotPerPartition, cc.WriteFrac)
		}
		runTxn = func(rng *rand.Rand) error { return w.Run(rng) }
	} else {
		w := oltp.NewTATP(db, oltp.TATPConfig{Subscribers: cfg.subs, HotAccessFrac: cfg.hot})
		runTxn = func(rng *rand.Rand) error { return w.Run(w.PickKind(rng), rng) }
	}

	stop := make(chan struct{})
	var measuring atomic.Bool
	var commits, failures atomic.Uint64
	latencies := make([][]time.Duration, cfg.workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := runTxn(rng); err != nil {
					failures.Add(1)
					continue
				}
				if measuring.Load() {
					latencies[id] = append(latencies[id], time.Since(t0))
					commits.Add(1)
				}
			}
		}(i)
	}

	// The lock-table census: sample live entries through the run — the
	// escalation comparison is exactly this number staying bounded.
	var censusMu sync.Mutex
	var entriesMax, entriesSum, entriesN int
	censusStop := make(chan struct{})
	var censusWG sync.WaitGroup
	censusWG.Add(1)
	go func() {
		defer censusWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-censusStop:
				return
			case <-tick.C:
				if !measuring.Load() {
					continue
				}
				n := db.LockEntries()
				censusMu.Lock()
				if n > entriesMax {
					entriesMax = n
				}
				entriesSum += n
				entriesN++
				censusMu.Unlock()
			}
		}
	}()

	time.Sleep(cfg.duration / 4) // warmup
	measuring.Store(true)
	t0 := time.Now()
	m0 := db.Metrics()
	h0 := db.CommitLatency() // hist baseline: exclude warmup commits
	res := oltpResult{label: label}
	if cfg.swapAt > 0 {
		time.Sleep(cfg.swapAt)
		pre := commits.Load()
		preDur := time.Since(t0)
		// The flip: every kv shard/stripe latch and every lock-table
		// stripe latch switches policy, live, under full load.
		store.SetPolicy(cfg.swapToPol)
		db.SetLatchPolicy(cfg.swapToPol)
		mid := commits.Load()
		tMid := time.Now()
		time.Sleep(cfg.duration - cfg.swapAt)
		res.preRate = float64(pre) / preDur.Seconds()
		res.postRate = float64(commits.Load()-mid) / time.Since(tMid).Seconds()
	} else {
		time.Sleep(cfg.duration)
	}
	measuring.Store(false)
	m1 := db.Metrics()
	ch := histDelta(db.CommitLatency(), h0)
	res.hist = ch.Summary()
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	close(censusStop)
	censusWG.Wait()

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.rate = float64(commits.Load()) / elapsed.Seconds()
	res.abortsPS = float64(m1.Aborts-m0.Aborts) / elapsed.Seconds()
	res.metrics = m1
	censusMu.Lock()
	res.entriesMax = entriesMax
	if entriesN > 0 {
		res.entriesAvg = float64(entriesSum) / float64(entriesN)
	}
	censusMu.Unlock()
	if len(all) > 0 {
		q := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
		res.p50, res.p99 = q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond)
	}
	snap := rt.Snapshot()
	res.snap = &snap
	if phaseLog != nil {
		// Close before the runtime stops: the final drain's group
		// commit still parks/wakes through the phase's live runtime.
		ws := phaseLog.Stats()
		res.wal = &ws
		if err := phaseLog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lcbench: wal close:", err)
		}
	}
	tracePhase("oltp/"+label, rt)
	rt.Stop()
	// Quiescent check: with every worker stopped, strict 2PL demands an
	// empty lock table under either policy — leftovers are leaks.
	if n := db.LockEntries(); n != 0 {
		fmt.Printf("phase %-14s WARNING: %d lock-table entries leaked after quiesce\n", label, n)
	}
	db.Close()
	store.Close()
	fmt.Printf("phase %-14s %12.0f commit/s  p50=%-10v p99=%-10v aborts[wait-die=%d detected=%d timeout=%d] "+
		"retries=%d escalations=%d lock-waits=%d latch-misses=%d locks[peak=%d avg=%.0f]\n",
		label, res.rate, res.p50, res.p99,
		m1.WaitDieAborts, m1.DetectedAborts, m1.TimeoutAborts, m1.Retries, m1.Escalations,
		m1.LockWaits, m1.LatchMisses, res.entriesMax, res.entriesAvg)
	if w := res.wal; w != nil {
		var grp float64
		if w.Syncs > 0 {
			grp = float64(w.Appends) / float64(w.Syncs)
		}
		// GroupSize's *Ns fields are counts, not nanoseconds — the
		// histogram is unit-agnostic and here it buckets commits/fsync.
		fmt.Printf("phase %-14s wal: appends=%d syncs=%d group[mean=%.1f p50=%d p99=%d] "+
			"fsync[p50=%v p99=%v] bytes=%d rotations=%d\n",
			label, w.Appends, w.Syncs, grp, w.GroupSize.P50Ns, w.GroupSize.P99Ns,
			time.Duration(w.SyncLatency.P50Ns).Round(time.Microsecond),
			time.Duration(w.SyncLatency.P99Ns).Round(time.Microsecond),
			w.BytesWritten, w.Rotations)
	}
	// The flight recorder's own view of the same window, from the
	// commit-latency histogram: within a power-of-two bucket of the
	// sampled p50/p99 above (that is the histogram's resolution).
	fmt.Printf("phase %-14s hist: p50=%-10v p99=%-10v p999=%-10v (n=%d, log2 buckets)\n",
		label, time.Duration(res.hist.P50Ns).Round(time.Microsecond),
		time.Duration(res.hist.P99Ns).Round(time.Microsecond),
		time.Duration(res.hist.P999Ns).Round(time.Microsecond), res.hist.Count)
	if n := failures.Load(); n > 0 {
		fmt.Printf("phase %-14s WARNING: %d transactions failed terminally (excluded from throughput)\n", label, n)
	}
	return res
}

// histDelta subtracts an earlier snapshot of the same histogram from a
// later one, yielding the distribution of just the window between them
// (Observe only ever adds, so the difference is well-defined).
func histDelta(h1, h0 obs.HistSnapshot) obs.HistSnapshot {
	for i := range h1.Buckets {
		h1.Buckets[i] -= h0.Buckets[i]
	}
	h1.Count -= h0.Count
	h1.Sum -= h0.Sum
	return h1
}

// spinFor busy-waits for roughly d (calibrated coarsely; this is a
// benchmark load generator, not a timer).
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
