// Package runtime is the process-wide load-control runtime: one
// controller goroutine, one load sensor, and one shared sleep-slot pool
// governing every load-controlled lock in the process.
//
// This is the paper's core architectural claim made concrete: contention
// management is decoupled from scheduling by a single per-process load
// controller, so adding a lock never adds a controller. Locks register
// with a Runtime and receive a Handle; the Handle carries the lock's
// side of the protocol (spinner census, slot claims, parking, the
// unlock-side wake) and its per-lock metrics, which contended waits
// reach through one bracket — Handle.BeginWait, Waiting.End — held by
// one caller, golc.Wait. The controller
// periodically reads the load sensor — runnable goroutines waiting for
// a P plus OS threads runnable beyond the CPUs (see sensor), or a
// custom LoadFunc — and publishes a sleep target T = load + sleeping.
// Spinning waiters claim sleep slots against T exactly as in the paper
// (S/W counters, immediate controller wakes on underload, a safety
// timeout). The spinner census is not an input: it only tells an
// unlocker whether an awake waiter is left (NoteUnlock), and is
// reported.
//
// Most programs use the shared Default() runtime; tests and benchmarks
// construct private ones with New.
//
// Two properties of the shared pool to know about:
//
//   - A lock whose waiters have all parked is not stranded until the
//     safety timeout. Each Handle tracks its own parked waiters, and
//     the lock's unlock path calls NoteUnlock, which — at the cost of
//     one atomic load when the lock has no sleepers — wakes exactly one
//     parked waiter when the lock is released with parked waiters and
//     no spinners left, enforcing a per-lock floor of one awake waiter.
//     The 100ms safety timeout remains only as the last-resort backstop
//     (controller death, custom lock code that never calls NoteUnlock).
//   - The metrics registry holds locks weakly. A registered lock stays
//     visible in Snapshot until its Handle's Close is called or the
//     Handle becomes unreachable, whichever comes first: registry
//     entries are weak pointers with a GC cleanup, so transient locks
//     created without a Close cannot grow the registry without bound.
//     Close remains the prompt, deterministic path (metrics disappear
//     immediately); GC collection is the backstop for code that forgot.
package runtime

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/golc/obs"
)

// LoadFunc reports current excess load in runnable workers: the
// controller will try to keep that many waiters asleep.
type LoadFunc func() int

// Options configures a Runtime.
type Options struct {
	// Interval between controller updates (default 2ms).
	Interval time.Duration
	// SleepTimeout bounds a sleeper's wait without a controller or
	// unlock wake (default 100ms, as in the paper).
	SleepTimeout time.Duration
	// BufferCap is the physical sleep-slot array size (default 1024).
	BufferCap int
	// LoadFunc, when non-nil, replaces the default sensor and is
	// published as the target as it stands (it is the test seam: a
	// constant pins the target).
	LoadFunc LoadFunc
	// Recorder is the runtime's flight recorder (default: a fresh
	// enabled obs.NewRecorder()). Share one only between runtimes whose
	// telemetry should aggregate.
	Recorder *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SleepTimeout == 0 {
		o.SleepTimeout = 100 * time.Millisecond
	}
	if o.BufferCap == 0 {
		o.BufferCap = 1024
	}
	if o.Recorder == nil {
		o.Recorder = obs.NewRecorder()
	}
	return o
}

// LockStats is the per-lock slice of a Snapshot.
type LockStats struct {
	Name            string
	Spins           uint64 // spin-loop iterations while waiting
	Blocks          uint64 // slot claims, each of which parks a waiter
	ControllerWakes uint64 // parks ended by a controller wake
	TimeoutWakes    uint64 // parks ended by the safety timeout
	UnlockWakes     uint64 // parks ended by the lock's own unlock
	SpinningNow     int64  // waiters spinning at snapshot time
	SleepingNow     int64  // waiters parked at snapshot time

	// Policy names the lock's active contention policy, as reported by
	// the lock through NotePolicy (empty for locks that never did).
	Policy string

	// BlameCount/BlameNs are the lock's slice of the blame matrix:
	// sampled blocked acquisitions and their summed wait nanoseconds
	// (see obs.DefaultBlameSampling — these undercount by the sampling
	// rate, like Go's own mutex profile).
	BlameCount uint64
	BlameNs    uint64

	// Wait and Hold are the lock's latency distributions: time from
	// first failed acquire to acquisition, and (sampled, see
	// obs.DefaultHoldSampling) time from acquisition to release.
	Wait obs.HistSnapshot
	Hold obs.HistSnapshot
}

// Contention is the sort key for "most contended": parks plus unlock
// wakes. Parks are the direct cost of contention (a waiter gave up
// spinning); unlock wakes mean the lock was so backed up that releases
// kept finding parked waiters with no spinner left.
func (ls LockStats) Contention() uint64 { return ls.Blocks + ls.UnlockWakes }

// Snapshot is a point-in-time view of the runtime; it marshals to JSON.
type Snapshot struct {
	Updates         uint64
	Claims          uint64
	ForcedClaims    uint64 // unconditional parks (ClaimForced: blocking policies)
	ControllerWakes uint64
	TimeoutWakes    uint64
	UnlockWakes     uint64
	CtxCancels      uint64 // parks abandoned by context cancellation
	Cancels         uint64 // claims retired unused (lock freed before the park)
	SlotRejects     uint64 // claims refused because no slot was free
	Spinners        int    // waiters spinning now: reported, not a controller input
	Sleeping        int
	Target          int // the published sleep target, after clamping to [0, BufferCap]
	LocksRegistered int

	// The last controller tick's inputs — why Target is what it is.
	// The default sensor sets Load = floor(RunQueue) + OSExcess and
	// targets Load + sleeping; under a LoadFunc, Load is its return
	// value and the other two are zero.
	RunQueue float64 // mean goroutines runnable but waiting for a P over the tick
	OSExcess int     // OS threads runnable beyond the CPUs; negative when CPUs idle
	Load     int     // raw excess load, before sleepers are added and the target clamped
	Locks    []LockStats

	// Global latency distributions, across every lock of the runtime.
	// WaitHist/HoldHist aggregate what the per-lock histograms record;
	// ParkHist is time actually spent asleep in the slot pool.
	WaitHist obs.HistSnapshot
	HoldHist obs.HistSnapshot
	ParkHist obs.HistSnapshot
}

// sleeper is one parked waiter: a channel closed by whichever wake path
// (controller, unlock, timeout drain) gets there first. idx is its slot
// in the pool; hpos is its position in its handle's parked list. All
// fields after ch are maintained under Runtime.mu. forced marks a claim
// made through ClaimForced: it bypasses the sleep target and is
// excluded from the S/W counters (the controller neither asked for it
// nor may wake it — only the lock's own unlock, the safety timeout, a
// context cancellation, or the Stop drain end it). gone flips when some
// wake path detaches the sleeper, so racing paths settle who consumed
// it.
type sleeper struct {
	ch     chan struct{}
	idx    int
	h      *Handle
	hpos   int
	forced bool
	gone   bool
	// t0 is the recorder stamp taken at claim time (0 when the
	// recorder was disabled); the sleeper's own goroutine reads it
	// after waking to record park duration. wake identifies which path
	// ended the park; written under Runtime.mu by the waker, read
	// under mu by the woken goroutine.
	t0   int64
	wake uint8
}

// Wake paths, for sleeper.wake and the EvWake event label.
const (
	wakeNone = iota
	wakeByController
	wakeByUnlock
	wakeByDrain
)

var wakeLabels = [...]string{wakeNone: "", wakeByController: "controller", wakeByUnlock: "unlock", wakeByDrain: "drain"}

// Runtime owns the controller goroutine, the load sensor, and the
// sleep-slot pool shared by every registered lock.
type Runtime struct {
	opts Options

	// rec is the runtime's flight recorder (== opts.Recorder, cached
	// for the hot paths).
	rec *obs.Recorder

	// spinners is the process-wide census of goroutines currently
	// spinning in a registered lock.
	spinners atomic.Int64

	// target is the published sleep target T. tickRunQueue (float64
	// bits), tickOSExcess and tickLoad are the inputs of the controller
	// tick that set it, kept for Snapshot.
	target       atomic.Int64
	tickRunQueue atomic.Uint64
	tickOSExcess atomic.Int64
	tickLoad     atomic.Int64

	// s and w are the paper's S and W counters; s-w is the sleeper
	// population (see sleeping for the required read order). Reads are
	// lock-free (the spinner fast path); all mutations take mu.
	s, w atomic.Uint64

	mu    sync.Mutex
	slots []*sleeper
	scan  int // wake cursor: where wakeOne resumes its scan
	place int // claim cursor: where trySleep resumes its free-slot scan

	// locks is the weak metrics registry: entries do not keep a Handle
	// alive. A weak.Pointer is a stable, comparable proxy for its
	// Handle, so it can key the set while the Handle remains
	// collectable; dead entries are removed by each Handle's GC cleanup
	// and opportunistically pruned by Snapshot.
	regMu sync.Mutex
	locks map[weak.Pointer[Handle]]struct{}

	updates         atomic.Uint64
	claims          atomic.Uint64
	forcedClaims    atomic.Uint64
	controllerWakes atomic.Uint64
	timeoutWakes    atomic.Uint64
	unlockWakes     atomic.Uint64
	ctxCancels      atomic.Uint64
	cancels         atomic.Uint64
	slotRejects     atomic.Uint64

	started  atomic.Bool
	stopping atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a runtime; call Start to launch its controller goroutine.
func New(opts Options) *Runtime {
	o := opts.withDefaults()
	return &Runtime{
		opts:  o,
		rec:   o.Recorder,
		slots: make([]*sleeper, o.BufferCap),
		locks: make(map[weak.Pointer[Handle]]struct{}),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Recorder returns the runtime's flight recorder.
func (r *Runtime) Recorder() *obs.Recorder { return r.rec }

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the process-wide shared runtime, starting it on
// first use.
func Default() *Runtime {
	defaultOnce.Do(func() {
		defaultRT = New(Options{})
		defaultRT.Start()
	})
	return defaultRT
}

// Start launches the controller goroutine. Starting twice is a no-op.
func (r *Runtime) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(r.done)
		var sens *sensor
		if r.opts.LoadFunc == nil {
			sens = newSensor(loadavgPath)
			defer sens.close()
		}
		tick := time.NewTicker(r.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.update(sens)
			}
		}
	}()
}

// Stop terminates the controller and wakes every sleeper — forced
// parks included. Safe to call more than once, and safe on a runtime
// that was never started. After Stop, new forced claims are refused
// (their callers fall back to spinning), so no waiter can park on a
// runtime with nobody left to wake it.
func (r *Runtime) Stop() {
	r.stopping.Store(true)
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
	r.setTarget(0)
}

// Register attaches a lock to the runtime and returns its Handle. The
// name is only for metrics; it need not be unique.
//
// Registration is weak: the registry never keeps the Handle alive.
// When the lock (and so its Handle) becomes unreachable, a GC cleanup
// removes the entry, so transient locks that are never Closed do not
// leak registry entries. Close remains the deterministic removal path.
func (r *Runtime) Register(name string) *Handle {
	h := &Handle{
		rt:   r,
		name: name,
		// Per-lock histograms get fewer shards than the globals: a
		// single lock rarely has enough concurrent recorders to
		// false-share two shards, and locks can be numerous.
		wait: obs.NewHistogram(2),
		hold: obs.NewHistogram(2),
	}
	h.self = weak.Make(h)
	r.regMu.Lock()
	r.locks[h.self] = struct{}{}
	r.regMu.Unlock()
	// The cleanup receives the weak pointer, not h (AddCleanup forbids
	// the argument keeping ptr reachable). Running it after an explicit
	// Close is a harmless double delete.
	goruntime.AddCleanup(h, func(wp weak.Pointer[Handle]) { r.unregister(wp) }, h.self)
	return h
}

// unregister detaches a registry entry (Handle.Close or GC cleanup).
func (r *Runtime) unregister(wp weak.Pointer[Handle]) {
	r.regMu.Lock()
	delete(r.locks, wp)
	r.regMu.Unlock()
}

// sleeping returns the current sleeper population S-W. W must be
// loaded before S: claims increment S and retirements increment W, and
// W never passes S, so loading W first can only transiently overcount.
// Loading S first races a concurrent retirement into a wrapped uint64
// difference — a bogus huge Sleeping.
func (r *Runtime) sleeping() int {
	w := r.w.Load()
	s := r.s.Load()
	return int(s - w)
}

// Snapshot returns a consistent-enough view of global and per-lock
// counters, per-lock entries sorted by name for stable output.
func (r *Runtime) Snapshot() Snapshot {
	snap := Snapshot{
		Updates:         r.updates.Load(),
		Claims:          r.claims.Load(),
		ForcedClaims:    r.forcedClaims.Load(),
		ControllerWakes: r.controllerWakes.Load(),
		TimeoutWakes:    r.timeoutWakes.Load(),
		UnlockWakes:     r.unlockWakes.Load(),
		CtxCancels:      r.ctxCancels.Load(),
		Cancels:         r.cancels.Load(),
		SlotRejects:     r.slotRejects.Load(),
		Spinners:        int(r.spinners.Load()),
		Sleeping:        r.sleeping(),
		Target:          int(r.target.Load()),
		RunQueue:        math.Float64frombits(r.tickRunQueue.Load()),
		OSExcess:        int(r.tickOSExcess.Load()),
		Load:            int(r.tickLoad.Load()),
	}
	r.regMu.Lock()
	for wp := range r.locks {
		h := wp.Value()
		if h == nil {
			// Collected before its cleanup ran: prune now so
			// LocksRegistered counts only live locks.
			delete(r.locks, wp)
			continue
		}
		snap.Locks = append(snap.Locks, h.Stats())
	}
	snap.LocksRegistered = len(r.locks)
	r.regMu.Unlock()
	snap.WaitHist = r.rec.Wait.Snapshot()
	snap.HoldHist = r.rec.Hold.Snapshot()
	snap.ParkHist = r.rec.Park.Snapshot()
	sort.Slice(snap.Locks, func(i, j int) bool { return snap.Locks[i].Name < snap.Locks[j].Name })
	return snap
}

// TopContended returns the n most contended locks of the snapshot,
// ranked by LockStats.Contention (parks + unlock wakes, ties broken by
// name for stable output), skipping locks with no contention at all.
func (s Snapshot) TopContended(n int) []LockStats {
	top := make([]LockStats, 0, len(s.Locks))
	for _, ls := range s.Locks {
		if ls.Contention() > 0 {
			top = append(top, ls)
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if ci, cj := top[i].Contention(), top[j].Contention(); ci != cj {
			return ci > cj
		}
		return top[i].Name < top[j].Name
	})
	if n >= 0 && len(top) > n {
		top = top[:n]
	}
	return top
}

// update is one controller cycle: read the sensor, publish T. sens is
// nil exactly when a LoadFunc replaces it.
func (r *Runtime) update(sens *sensor) {
	r.updates.Add(1)
	var runQueue float64
	var osExcess, load, t int
	sleeping := r.sleeping()
	if sens == nil {
		load = r.opts.LoadFunc()
		t = load
	} else {
		runQueue, osExcess = sens.runQueue(), sens.osExcess()
		// Flooring drops the fraction of a goroutine that timers and the
		// controller's own wake-ups queue on an idle process. Current
		// sleepers count against the same budget: they would be load if
		// they woke.
		load = int(runQueue) + osExcess
		t = load + sleeping
	}
	r.tickRunQueue.Store(math.Float64bits(runQueue))
	r.tickOSExcess.Store(int64(osExcess))
	r.tickLoad.Store(int64(load))
	if r.rec.Enabled() {
		// What the controller saw, and the target before setTarget
		// clamps it: the flight recorder should show the decision's
		// inputs, not only what it kept.
		label := fmt.Sprintf("runq=%.1f os=%d load=%d sleeping=%d", runQueue, osExcess, load, sleeping)
		r.rec.Event(obs.EvControllerTick, "", label, int64(t))
	}
	r.setTarget(t)
}

// setTarget publishes T and wakes surplus sleepers immediately.
func (r *Runtime) setTarget(t int) {
	if t < 0 {
		t = 0
	}
	if t > len(r.slots) {
		t = len(r.slots)
	}
	r.target.Store(int64(t))
	if t == 0 {
		// Wake until the pool is verifiably empty. Stop relies on
		// this: a claim racing the store above either completes its
		// slot insert under mu before a wakeOne scan (which then
		// finds it) or fails its target re-check under mu. There is
		// no herd to avoid — at target zero every sleeper must wake.
		// Forced sleepers are drained only when the runtime is
		// stopping: a routine target-zero tick must not turn blocking
		// policies into 2ms polls.
		drain := r.stopping.Load()
		for r.wakeOne(drain) {
		}
		return
	}
	// Wake exactly the surplus, computed once: a woken sleeper only
	// increments w when it gets scheduled, so re-reading s-w here
	// would count it as still asleep and a small target decrease
	// would stampede every sleeper awake. A claim racing a decrease
	// is healed by the next controller tick.
	excess := r.sleeping() - t
	for i := 0; i < excess; i++ {
		if !r.wakeOne(false) {
			break
		}
	}
}

// detach removes s from the slot pool and from its handle's parked
// list, reporting whether s was still attached (false means another
// wake path already consumed it). Caller holds mu.
func (r *Runtime) detach(s *sleeper) bool {
	if s.gone {
		return false
	}
	s.gone = true
	r.slots[s.idx] = nil
	h := s.h
	last := len(h.parked) - 1
	moved := h.parked[last]
	h.parked[s.hpos] = moved
	moved.hpos = s.hpos
	h.parked[last] = nil
	h.parked = h.parked[:last]
	h.sleepers.Add(-1)
	return true
}

// wakeOne scans for an occupied slot, clears it and signals the
// sleeper. Forced sleepers are skipped unless drain is set (the Stop
// drain): the controller never asked them to sleep, so it has no
// business waking them early.
func (r *Runtime) wakeOne(drain bool) bool {
	r.mu.Lock()
	n := len(r.slots)
	for i := 0; i < n; i++ {
		idx := (r.scan + i) % n
		if s := r.slots[idx]; s != nil {
			if s.forced && !drain {
				continue
			}
			if s.forced {
				s.wake = wakeByDrain
			} else {
				s.wake = wakeByController
			}
			r.detach(s)
			r.scan = (idx + 1) % n
			r.mu.Unlock()
			// A drained forced sleeper is shutdown bookkeeping, not a
			// controller decision: counting it as a ControllerWakes
			// would contradict the forced-claim semantics ("the
			// controller may not wake it") and skew the wake split.
			if !s.forced {
				r.controllerWakes.Add(1)
				s.h.controllerWakes.Add(1)
			}
			close(s.ch)
			return true
		}
	}
	r.mu.Unlock()
	return false
}

// wakeHandle is the unlock-side wake: it signals one of h's parked
// waiters (never the one holding the except claim, when given —
// a waiter that is itself committed to parking must not wake its own
// slot, or the wake is wasted on an immediate no-op sleep). Unlike
// controller wakes it does not consult the target — the lock is free
// and someone must go get it. The woken sleeper retires normally
// (W++), so the pool opens a slot that another lock's spinner may
// claim: the awake-waiter floor transfers the sleep quota rather than
// shrinking the sleeping population the controller asked for.
func (r *Runtime) wakeHandle(h *Handle, except *sleeper) bool {
	r.mu.Lock()
	var s *sleeper
	for _, cand := range h.parked {
		if cand != except {
			s = cand
			break
		}
	}
	if s == nil {
		r.mu.Unlock()
		return false
	}
	s.wake = wakeByUnlock
	r.detach(s)
	r.mu.Unlock()
	r.unlockWakes.Add(1)
	h.unlockWakes.Add(1)
	close(s.ch)
	return true
}

// wakeAllHandle detaches every parked waiter of h under one mu hold and
// signals them after it: group notification (a wal commit group reaches
// 60 waiters) for one lock round-trip instead of one per waiter.
func (r *Runtime) wakeAllHandle(h *Handle) int {
	r.mu.Lock()
	woken := make([]*sleeper, 0, len(h.parked))
	for len(h.parked) > 0 {
		s := h.parked[len(h.parked)-1]
		s.wake = wakeByUnlock
		r.detach(s)
		woken = append(woken, s)
	}
	r.mu.Unlock()
	r.unlockWakes.Add(uint64(len(woken)))
	h.unlockWakes.Add(uint64(len(woken)))
	for _, s := range woken {
		close(s.ch)
	}
	return len(woken)
}

// trySleep attempts the spinner-side slot claim for h. In the normal
// (voluntary) form it returns nil when the target leaves no openings
// (the common fast path: three atomic loads). The physical slot is
// found by scanning from the claim cursor, so holes left by
// out-of-order wakes are always usable. With the target capped at the
// pool size, occupied voluntary slots never exceed the sleeping
// population; the SlotRejects branch is a tripwire for protocol bugs
// plus the one honest way forced claims can fail (a blocking policy
// can fill the pool past the target, since its claims are
// unconditional).
//
// The forced form (blocking policies) skips the target test entirely:
// the waiter parks because its policy always parks, not because the
// controller asked. Forced claims stay out of the S/W counters — the
// controller's sleeping population is only what it ordered asleep —
// and are refused once the runtime is stopping, so a late parker
// cannot miss the Stop drain.
func (r *Runtime) trySleep(h *Handle, forced bool) *sleeper {
	if !forced && int64(r.sleeping()) >= r.target.Load() {
		return nil
	}
	r.mu.Lock()
	if forced {
		if r.stopping.Load() {
			r.mu.Unlock()
			return nil
		}
	} else if int64(r.sleeping()) >= r.target.Load() {
		r.mu.Unlock()
		return nil
	}
	n := len(r.slots)
	idx := -1
	for i := 0; i < n; i++ {
		if j := (r.place + i) % n; r.slots[j] == nil {
			idx = j
			break
		}
	}
	if idx < 0 {
		r.slotRejects.Add(1)
		r.mu.Unlock()
		return nil
	}
	r.place = (idx + 1) % n
	s := &sleeper{ch: make(chan struct{}), idx: idx, h: h, forced: forced}
	r.slots[idx] = s
	s.hpos = len(h.parked)
	h.parked = append(h.parked, s)
	h.sleepers.Add(1)
	if forced {
		r.forcedClaims.Add(1)
	} else {
		r.s.Add(1)
		r.claims.Add(1)
	}
	r.mu.Unlock()
	return s
}

// sleep parks until a wake, the timeout, or ctx cancellation, then
// retires from the buffer (W++ for voluntary claims), clearing its own
// slot on the timeout and cancellation paths. A nil ctx (or one that
// can never be cancelled) costs nothing extra. It returns nil for a
// wake or timeout and ctx.Err() for a cancellation; on the
// cancellation path, a wake that raced in and was consumed by this
// sleeper is forwarded to the handle's next parked waiter, so an
// abandoned park cannot eat an unlock-side handoff.
func (r *Runtime) sleep(s *sleeper, ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	timer := time.NewTimer(r.opts.SleepTimeout)
	var err error
	select {
	case <-s.ch:
	case <-timer.C:
	case <-done:
		err = ctx.Err()
	}
	timer.Stop()
	forward := false
	reason := ""
	r.mu.Lock()
	if r.detach(s) {
		if err != nil {
			r.ctxCancels.Add(1)
			reason = "cancel"
		} else {
			r.timeoutWakes.Add(1)
			s.h.timeoutWakes.Add(1)
			reason = "timeout"
		}
	} else {
		// Someone woke this sleeper; s.wake (written by the waker
		// under mu) says who. If the cancellation won the select
		// anyway, the wake must not be lost.
		if err != nil {
			forward = true
		}
		reason = wakeLabels[s.wake]
	}
	if !s.forced {
		r.w.Add(1)
	}
	r.mu.Unlock()
	if s.t0 != 0 {
		// The park ends here, whatever ended it: one observation per
		// park, spanning claim to retirement.
		d := r.rec.Now() - s.t0
		r.rec.Park.Observe(d)
		r.rec.Span(obs.EvWake, s.h.name, reason, 0, d)
	}
	if forward {
		r.wakeHandle(s.h, nil)
	}
	return err
}

// cancel retires a claim without sleeping on it: the lock turned out
// to be free after the claim, so the waiter returns to acquiring. If a
// wake consumed the slot first that wake is already accounted; either
// way the claim retires (W++ for voluntary claims), keeping S/W
// balanced.
func (r *Runtime) cancel(s *sleeper) {
	r.mu.Lock()
	if r.detach(s) {
		r.cancels.Add(1)
	}
	if !s.forced {
		r.w.Add(1)
	}
	r.mu.Unlock()
}

// Handle is one registered lock's connection to the runtime: the
// lock-side protocol plus per-lock counters.
type Handle struct {
	rt   *Runtime
	name string
	// self is this handle's registry key (see Register).
	self weak.Pointer[Handle]

	// spinning is this lock's slice of the census; sleepers counts its
	// parked waiters. NoteUnlock reads them (sleepers first) to decide
	// whether a wake is needed; TryClaim moves a waiter from one to the
	// other (sleepers up inside the claim, spinning down after), so by
	// the time a claimant re-checks the lock state, an unlocker that
	// observes the old state is guaranteed to observe the claim.
	spinning atomic.Int64
	sleepers atomic.Int64

	// parked lists this lock's sleepers (guarded by rt.mu), giving the
	// unlock-side wake O(1) access instead of a pool scan.
	parked []*sleeper

	spins           atomic.Uint64
	blocks          atomic.Uint64
	controllerWakes atomic.Uint64
	timeoutWakes    atomic.Uint64
	unlockWakes     atomic.Uint64

	// blameCount/blameNs mirror the lock's contributions to the blame
	// matrix, so per-lock stats can show blame volume without scanning
	// the matrix.
	blameCount atomic.Uint64
	blameNs    atomic.Uint64

	// holderSite is the blame-sampled acquire site of the current
	// holder (an obs.SiteID, 0 when unknown). It is atomic — waiters
	// read it while the lock is held by someone else — but only ever
	// written by a holder: a blame-sampled acquirer publishes its site
	// after acquiring, and the matching release clears it. Unsampled
	// holders leave it zero, so waiters see "unknown holder" rather
	// than a stale site.
	holderSite atomic.Uint64

	// policy names the lock's active contention policy (NotePolicy).
	policy atomic.Pointer[string]

	// wait and hold are the lock's latency histograms; Waiting.End and
	// RecordHold feed both them and the runtime's global ones.
	wait *obs.Histogram
	hold *obs.Histogram
}

// Name returns the name given at registration.
func (h *Handle) Name() string { return h.name }

// Obs returns the runtime's flight recorder, for locks that emit
// their own events (policy swaps, cancelled waits).
func (h *Handle) Obs() *obs.Recorder { return h.rt.rec }

// Waiting is one contended wait in flight: what BeginWait captured and
// End needs to record it. It lives on the waiter's stack.
type Waiting struct {
	h      *Handle
	start  int64      // recorder stamp; 0 when the recorder is disabled
	waiter obs.SiteID // the waiter's acquire site; 0 unless blame-sampled
	holder obs.SiteID // the holder published when the wait began
}

// BeginWait opens the wait bracket that Waiting.End closes. Its one
// caller is golc.Wait, which runs the ContentionPolicy between the two,
// so every wait of every lock under every policy passes this
// attribution point. It stamps the wait and, on a blame-sampled wait
// (the uncommon case; otherwise two atomic loads), captures the
// waiter's acquire site — skipping skip frames above BeginWait's
// caller — and reads whoever holds the lock right now: that holder
// built the convoy this waiter is about to join.
func (h *Handle) BeginWait(skip int) Waiting {
	rec := h.rt.rec
	w := Waiting{h: h}
	if rec.Enabled() {
		w.start = rec.Now()
	}
	if rec.BlameSampled() {
		w.waiter = rec.CallerSite(skip + 1)
		w.holder = obs.SiteID(h.holderSite.Load())
	}
	return w
}

// End closes the bracket with the policy's verdict. A nil err is an
// acquisition: the wait goes into the lock's and the runtime's wait
// histograms, a sampled one into the blame matrix too, and the
// waiter's site (0 unless sampled) is returned for the new holder to
// publish. A non-nil err is a wait that was cancelled: only the event
// is recorded.
func (w Waiting) End(err error) obs.SiteID {
	h, rec := w.h, w.h.rt.rec
	if err != nil {
		if w.start != 0 {
			rec.Event(obs.EvCtxCancel, h.name, "", 0)
		}
		return 0
	}
	if w.start != 0 {
		d := rec.Now() - w.start
		h.wait.Observe(d)
		rec.Wait.Observe(d)
		if w.waiter != 0 {
			h.blameCount.Add(1)
			h.blameNs.Add(uint64(d))
			rec.RecordBlame(w.waiter, w.holder, h.name, d)
		}
	}
	return w.waiter
}

// HoldStamp forwards to the recorder's sampled hold stamping (see
// obs.Recorder.HoldStamp); locks feed it their acquisition sequence.
func (h *Handle) HoldStamp(seq uint64) int64 { return h.rt.rec.HoldStamp(seq) }

// RecordHold records a (sampled) lock hold that began at start into
// the lock's and the runtime's hold histograms.
func (h *Handle) RecordHold(start int64) {
	rec := h.rt.rec
	d := rec.Now() - start
	h.hold.Observe(d)
	rec.Hold.Observe(d)
}

// NotePolicy records the name of the lock's active contention policy,
// for stats and dashboards. Locks call it at construction and on every
// hot-swap.
func (h *Handle) NotePolicy(name string) { h.policy.Store(&name) }

// PolicyName returns the name last recorded by NotePolicy ("" if none).
func (h *Handle) PolicyName() string {
	if p := h.policy.Load(); p != nil {
		return *p
	}
	return ""
}

// PublishHolderSite stamps site as the current holder's acquire site.
// Call only while holding the lock, with the site this acquisition's
// wait returned (Waiting.End).
func (h *Handle) PublishHolderSite(site obs.SiteID) { h.holderSite.Store(uint64(site)) }

// ClearHolderSite clears the published holder site on release. Callers
// track whether they published (a plain field under the lock) so the
// unsampled unlock path pays nothing; this method still loads first so
// an unconditional caller (reader unlock paths that can't know) is one
// atomic load when there is nothing to clear.
func (h *Handle) ClearHolderSite() {
	if h.holderSite.Load() != 0 {
		h.holderSite.Store(0)
	}
}

// Close unregisters the lock from the runtime's metrics registry. The
// handle remains usable (a closed handle only stops appearing in
// Snapshot), so a racing Lock never observes a torn-down handle.
// Registration is also GC-aware (see Register), so Close is about
// prompt, deterministic removal rather than correctness.
func (h *Handle) Close() { h.rt.unregister(h.self) }

// Spinning adjusts the shared spinner census by delta. Locks call
// Spinning(1) when a waiter starts spinning and Spinning(-1) when it
// acquires or gives up.
func (h *Handle) Spinning(delta int) {
	h.rt.spinners.Add(int64(delta))
	h.spinning.Add(int64(delta))
}

// NoteSpins adds n spin-loop iterations to the lock's counters. Locks
// batch this (accumulate locally, report on exit) to keep the spin loop
// free of shared-counter traffic.
func (h *Handle) NoteSpins(n int) { h.spins.Add(uint64(n)) }

// NoteUnlock is the unlock-side wake hook: locks call it after
// releasing. When the lock has parked waiters and no spinners left, it
// wakes exactly one sleeper so a free lock never idles until the
// safety timeout just because other locks keep the global target high
// — the per-lock awake-waiter floor. The common path (no sleepers) is
// one atomic load.
//
// The protocol cannot strand a waiter: a parker claims (making its
// sleeper visible and leaving the spinning census) and then re-checks
// the lock state, sleeping only if the lock is still held (else
// Ticket.Cancel). An unlocker releases and then reads sleepers and
// spinning. If the parker saw the lock held, its claim is ordered
// before the release, so the unlocker sees the sleeper and wakes it;
// if the unlocker instead saw a lingering spinner, that spinner's
// re-check is ordered after the release, so it sees the free lock and
// cancels its park.
func (h *Handle) NoteUnlock() {
	if h.sleepers.Load() == 0 {
		return
	}
	if h.spinning.Load() > 0 {
		return // an awake waiter exists; it will take the free lock
	}
	h.rt.wakeHandle(h, nil)
}

// WakeOne unconditionally wakes one of the lock's parked waiters,
// reporting whether there was one. NoteUnlock is the usual entry
// point; WakeOne serves tests and custom lock code.
func (h *Handle) WakeOne() bool { return h.rt.wakeHandle(h, nil) }

// WakeAll unconditionally wakes every parked waiter of the lock and
// returns how many there were, for waits that end for all waiters at
// once (the wal's group commit) rather than for one acquirer.
func (h *Handle) WakeAll() int { return h.rt.wakeAllHandle(h) }

// A Ticket is a claimed sleep slot that has not been slept on yet. The
// claim/sleep split has two jobs: a lock re-checks its state after the
// claim and cancels the park if the lock was released in between (see
// NoteUnlock), and a lock can release auxiliary state only once the
// park is certain — e.g. a writer dropping its writer-preference
// claim: dropping it on every failed claim attempt would leak readers
// past a waiting writer.
type Ticket struct {
	h *Handle
	s *sleeper
}

// TryClaim attempts the spinner-side slot claim without sleeping. The
// no-openings case is three atomic loads. A successful claim leaves
// the spinner census (the waiter is committed to parking unless it
// Cancels); Sleep and Cancel both rejoin it.
func (h *Handle) TryClaim() (Ticket, bool) {
	return h.claim(false)
}

// ClaimForced claims a sleep slot unconditionally — no target test, no
// S/W accounting — for policies that always park contended waiters
// (golc's Block policy). A forced sleeper is woken only by the lock's
// own unlock (NoteUnlock/WakeOne), the safety timeout, a context
// cancellation, or the Stop drain; the controller ignores it. It fails
// when the slot pool is physically full or the runtime is stopping —
// callers fall back to spinning.
func (h *Handle) ClaimForced() (Ticket, bool) {
	return h.claim(true)
}

func (h *Handle) claim(forced bool) (Ticket, bool) {
	s := h.rt.trySleep(h, forced)
	if s == nil {
		return Ticket{}, false
	}
	h.Spinning(-1)
	h.blocks.Add(1)
	if rec := h.rt.rec; rec.Enabled() {
		// Stamp the claim so the eventual wake can record how long the
		// park lasted. t0 is owned by this goroutine until it sleeps.
		s.t0 = rec.Now()
		ev := obs.EvPark
		if forced {
			ev = obs.EvForcedClaim
		}
		rec.Event(ev, h.name, "", 0)
	}
	return Ticket{h: h, s: s}, true
}

// Sleep parks on the claimed slot until a controller wake, an unlock
// wake, or the safety timeout, then rejoins the spinner census.
func (t Ticket) Sleep() { t.SleepCtx(nil) } //nolint:errcheck // nil ctx cannot err

// SleepCtx is Sleep with a cancellation route: if ctx is cancelled
// while parked, the park is abandoned promptly (any wake it had
// already consumed is forwarded to the handle's next sleeper) and
// ctx.Err() is returned. A nil ctx — or one whose Done channel is nil,
// like context.Background() — never cancels and costs nothing extra.
// Either way the waiter rejoins the spinner census before returning;
// a cancelled caller is expected to leave its acquire loop itself.
func (t Ticket) SleepCtx(ctx context.Context) error {
	err := t.h.rt.sleep(t.s, ctx)
	t.h.Spinning(1)
	return err
}

// Cancel retires the claim without parking — the caller re-checked its
// lock and found it free — and rejoins the spinner census.
func (t Ticket) Cancel() {
	t.h.rt.cancel(t.s)
	t.h.Spinning(1)
}

// NoteRelease is NoteUnlock for a waiter that is itself committed to
// parking: a claimant that releases a gate on its way to sleep (the
// RWMutex writer dropping its writer-preference claim) must wake a
// waiter that parked behind that gate — but never its own freshly
// claimed slot, which a plain NoteUnlock would pick. The common path
// (no other sleeper) is one atomic load.
func (t Ticket) NoteRelease() {
	h := t.h
	if h.sleepers.Load() <= 1 {
		return // only our own claim is parked
	}
	if h.spinning.Load() > 0 {
		return
	}
	h.rt.wakeHandle(h, t.s)
}

// Waiters reports the lock's current waiter population: goroutines
// spinning in its acquire loops and goroutines parked in the slot pool
// on its behalf. Point-in-time reads of two atomics — cheap enough for
// deadlock bookkeeping and contention dashboards to poll.
func (h *Handle) Waiters() (spinning, sleeping int64) {
	return h.spinning.Load(), h.sleepers.Load()
}

// Stats returns the lock's counters.
func (h *Handle) Stats() LockStats {
	return LockStats{
		Name:            h.name,
		Spins:           h.spins.Load(),
		Blocks:          h.blocks.Load(),
		ControllerWakes: h.controllerWakes.Load(),
		TimeoutWakes:    h.timeoutWakes.Load(),
		UnlockWakes:     h.unlockWakes.Load(),
		SpinningNow:     h.spinning.Load(),
		SleepingNow:     h.sleepers.Load(),
		Policy:          h.PolicyName(),
		BlameCount:      h.blameCount.Load(),
		BlameNs:         h.blameNs.Load(),
		Wait:            h.wait.Snapshot(),
		Hold:            h.hold.Snapshot(),
	}
}
