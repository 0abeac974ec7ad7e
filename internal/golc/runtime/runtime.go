// Package runtime is the process-wide load-control runtime: one
// controller goroutine, one load sensor, and one sleep buffer — the
// paper's S and W counters — governing every load-controlled lock in
// the process.
//
// This is the paper's core architectural claim made concrete: contention
// management is decoupled from scheduling by a single per-process load
// controller, so adding a lock never adds a controller. Locks register
// with a Runtime and receive a Handle; the Handle carries the lock's
// side of the protocol (spinner count, sleep claims, its parked list,
// the unlock-side wake), its contention policy and its metrics, the
// only copy of each: the runtime's totals are their sum, taken by
// Snapshot, and SetPolicy flips every lock's policy. Handle.Wait reads
// the policy once, then runs a whole contended wait — spin, claim,
// re-check, park — and records it; the runtime exports no other way to
// park. The controller
// periodically reads the load sensor — runnable goroutines waiting for
// a P plus OS threads runnable beyond the CPUs (see sensor), or a
// custom LoadFunc — and publishes a sleep target T. Under the default
// sensor the sign of the load decides, not its magnitude: while it
// reads excess load T is maxTarget, so every waiter past its grace
// parks; otherwise T = load + sleeping, which admits no new claim at
// zero load and wakes −load sleepers below it. A LoadFunc is published
// as it stands. Spinning waiters claim sleep against T exactly as in
// the paper (S/W counters, immediate controller wakes on underload, a
// safety timeout). Outside the Stop drain a park ends in one of three
// ways — a controller wake, the lock's unlock wake, or the timeout —
// and never on cancellation: physical waits are uncancellable by
// design. The spinner counts are not an input: they only tell an
// unlocker whether an awake waiter is left (NoteUnlock), and are
// reported.
//
// No park takes a process-wide lock. A sleeper lives only on its own
// lock's parked list, under that Handle's mutex; S and W are the only
// state every park shares. The controller finds sleepers through the
// lock registry. Nor does a wait count anything process-wide: past S and
// W, a contended wait writes its own Handle, and the recorder only when
// it parks (an event and the park histogram) or is blame-sampled.
//
// Most programs use the shared Default() runtime; tests and benchmarks
// construct private ones with New.
//
// Two properties of the shared buffer to know about:
//
//   - A lock whose waiters have all parked is not stranded until the
//     safety timeout. Each Handle tracks its own parked waiters, and
//     the lock's unlock path calls NoteUnlock, which — at the cost of
//     one atomic load when the lock has no sleepers — wakes exactly one
//     parked waiter when the lock is released with parked waiters and
//     no spinners left, enforcing a per-lock floor of one awake waiter.
//     The 100ms safety timeout remains only as the last-resort backstop
//     (controller death; a wake missed anyway shows as TimeoutWakesFree).
//   - The metrics registry holds locks weakly. A registered lock stays
//     visible in Snapshot until its Handle's Close is called or the
//     Handle becomes unreachable, whichever comes first: registry
//     entries are weak pointers with a GC cleanup, so transient locks
//     created without a Close cannot grow the registry without bound.
//     Close hides the lock from Snapshot at once; only the GC cleanup
//     removes its entry, so the Stop drain still reaches its sleepers.
package runtime

import (
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
	// LoadFunc, when non-nil, replaces the default sensor and is
	// published as the target as it stands (it is the test seam: a
	// constant pins the target).
	LoadFunc LoadFunc
}

// maxTarget clamps the sleep target: the target the default sensor
// publishes under overload.
const maxTarget = 1024

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SleepTimeout == 0 {
		o.SleepTimeout = 100 * time.Millisecond
	}
	return o
}

// LockCounters is the set of events one lock counts. Each is counted
// once, on the lock's own Handle: LockStats carries one lock's, and
// Snapshot carries their sum over the registered locks (Add).
type LockCounters struct {
	Spins            uint64 // spin-loop iterations while waiting
	Blocks           uint64 // sleep claims, each of which parks a waiter
	ForcedClaims     uint64 // of those, unconditional ones: the block policy's (ParkAlways) and every keyed wait's (Acquire.Key)
	ControllerWakes  uint64 // parks ended by a controller wake
	TimeoutWakes     uint64 // parks ended by the safety timeout
	TimeoutWakesFree uint64 // of those, wakes whose waiter then found the lock free: a missed wake, or a release racing the timeout
	UnlockWakes      uint64 // parks ended by the lock's own unlock
	Cancels          uint64 // claims retired unused (lock freed before the park, or the runtime stopping)
	ClaimRefusals    uint64 // voluntary claims refused by the target test (sleeping ≥ Target)
}

// Add sums o into c.
func (c *LockCounters) Add(o LockCounters) {
	c.Spins += o.Spins
	c.Blocks += o.Blocks
	c.ForcedClaims += o.ForcedClaims
	c.ControllerWakes += o.ControllerWakes
	c.TimeoutWakes += o.TimeoutWakes
	c.TimeoutWakesFree += o.TimeoutWakesFree
	c.UnlockWakes += o.UnlockWakes
	c.Cancels += o.Cancels
	c.ClaimRefusals += o.ClaimRefusals
}

// LockStats is the per-lock slice of a Snapshot.
type LockStats struct {
	Name string
	LockCounters
	SpinningNow int64 // waiters spinning at snapshot time
	SleepingNow int64 // waiters parked at snapshot time

	// Policy names the lock's contention policy (Handle.SetPolicy).
	Policy string

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
//
// The runtime counts nothing per event beyond S and W: the
// LockCounters totals and WaitHist/HoldHist are the sum of every
// registered lock's own, taken on read. A Closed lock leaves Locks but
// still counts in the totals. A lock the GC collected leaves the totals
// with its registry entry, so a total can fall between two snapshots
// only if a lock was dropped without Close in between.
type Snapshot struct {
	Updates uint64
	Claims  uint64 // voluntary claims: the S counter
	LockCounters
	SlotRejects     uint64 // always 0: there is no slot array to fill (kept for lcperf)
	Spinners        int    // waiters spinning now, summed over Locks: reported, not a controller input
	Sleeping        int
	Target          int // the published sleep target, after clamping to [0, maxTarget]
	LocksRegistered int

	// The last controller tick's inputs — why Target is what it is.
	// The default sensor sets Load = floor(RunQueue) + OSExcess and
	// targets maxTarget while Load > 0, Load + sleeping
	// otherwise, so under overload Target saturates and only these
	// inputs say how overloaded; under a LoadFunc, Load is its return
	// value and the other two are zero.
	RunQueue float64 // mean goroutines runnable but waiting for a P over the tick
	OSExcess int     // OS threads runnable beyond the CPUs; negative when CPUs idle
	Load     int     // raw excess load: its sign picks the target law, then the target is clamped
	Locks    []LockStats

	// Runtime-wide latency distributions. WaitHist/HoldHist merge the
	// per-lock histograms, as the counters above sum the per-lock
	// counts; ParkHist is time actually spent parked, claim to
	// retirement, kept once by the recorder.
	WaitHist obs.HistSnapshot
	HoldHist obs.HistSnapshot
	ParkHist obs.HistSnapshot
}

// sleeper is one parked waiter: a channel closed by whichever wake path
// (controller, unlock, timeout drain) gets there first. hpos is its
// position in its handle's parked list; hpos, gone and wake are
// maintained under h.mu. forced marks a ParkAlways or keyed claim: it
// bypasses the sleep target and is excluded from the S/W counters (the
// controller neither asked for it nor may wake it — only the lock's own
// unlock, the safety timeout, or the Stop drain end it). key is the
// wait's Acquire.Key, set before the sleeper joins the parked list and
// read by WakeThrough under h.mu.
// gone flips when some wake path detaches the sleeper, so racing paths
// settle who consumed it.
type sleeper struct {
	ch     chan struct{}
	h      *Handle
	hpos   int
	key    uint64
	forced bool
	gone   bool
	// t0 is the recorder stamp taken at claim time (0 when the
	// recorder was disabled); the sleeper's own goroutine reads it
	// after waking to record park duration. wake identifies which path
	// ended the park; written under h.mu by the waker, read under h.mu
	// by the woken goroutine.
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
// S/W sleep buffer shared by every registered lock.
type Runtime struct {
	opts Options

	// rec is the runtime's flight recorder.
	rec *obs.Recorder

	// target is the published sleep target T. tickRunQueue (float64
	// bits), tickOSExcess and tickLoad are the inputs of the controller
	// tick that set it, kept for Snapshot.
	target       atomic.Int64
	tickRunQueue atomic.Uint64
	tickOSExcess atomic.Int64
	tickLoad     atomic.Int64

	// s and w are the paper's S and W counters; s-w is the voluntary
	// sleeper population (see sleeping for the required read order). A
	// voluntary claim advances s by CAS against the target (admit); its
	// retirement bumps w. No lock guards either.
	s, w atomic.Uint64

	// locks is the weak lock registry: entries do not keep a Handle
	// alive. A weak.Pointer is a stable, comparable proxy for its
	// Handle, so it can key the set while the Handle remains
	// collectable; dead entries are removed by each Handle's GC cleanup
	// and opportunistically pruned by Snapshot. The controller wake
	// finds sleepers through it.
	regMu sync.Mutex
	locks map[weak.Pointer[Handle]]struct{}

	updates atomic.Uint64

	started  atomic.Bool
	stopping atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a runtime; call Start to launch its controller goroutine.
func New(opts Options) *Runtime {
	return &Runtime{
		opts:  opts.withDefaults(),
		rec:   obs.NewRecorder(),
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
// parks and the parks of Closed locks included. Safe to call more than
// once, and safe on a runtime that was never started. After Stop, new
// claims of both kinds are refused (their callers fall back to
// spinning), so no waiter can park on a runtime with nobody left to
// wake it.
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
	wp := weak.Make(h)
	r.regMu.Lock()
	r.locks[wp] = struct{}{}
	r.regMu.Unlock()
	// The cleanup receives the weak pointer, not h (AddCleanup forbids
	// the argument keeping ptr reachable). It is the only delete: a
	// Closed handle stays listed, hidden, while it can still park.
	goruntime.AddCleanup(h, func(wp weak.Pointer[Handle]) {
		r.regMu.Lock()
		delete(r.locks, wp)
		r.regMu.Unlock()
	}, wp)
	return h
}

// SetPolicy flips every registered lock to p (Handle.SetPolicy),
// Closed ones included: a Closed lock is still usable, and a lock
// created after the flip keeps the policy it was built with.
func (r *Runtime) SetPolicy(p Park) {
	r.regMu.Lock()
	for wp := range r.locks {
		if h := wp.Value(); h != nil {
			h.SetPolicy(p)
		}
	}
	r.regMu.Unlock()
}

// sleeping returns the current voluntary sleeper population S-W. W
// must be loaded before S: claims increment S and retirements increment
// W, and W never passes S, so loading W first can only transiently
// overcount.
// Loading S first races a concurrent retirement into a wrapped uint64
// difference — a bogus huge Sleeping.
func (r *Runtime) sleeping() int {
	w := r.w.Load()
	s := r.s.Load()
	return int(s - w)
}

// Snapshot returns a consistent-enough view of the runtime and its
// locks, per-lock entries sorted by name for stable output. The totals
// fold every registered lock, Closed ones included (see Snapshot).
func (r *Runtime) Snapshot() Snapshot {
	snap := Snapshot{
		Updates:  r.updates.Load(),
		Claims:   r.s.Load(),
		Sleeping: r.sleeping(),
		Target:   int(r.target.Load()),
		RunQueue: math.Float64frombits(r.tickRunQueue.Load()),
		OSExcess: int(r.tickOSExcess.Load()),
		Load:     int(r.tickLoad.Load()),
	}
	r.regMu.Lock()
	for wp := range r.locks {
		h := wp.Value()
		if h == nil {
			// Collected before its cleanup ran: prune it now.
			delete(r.locks, wp)
			continue
		}
		ls := h.Stats()
		snap.Add(ls.LockCounters)
		snap.WaitHist.Merge(ls.Wait)
		snap.HoldHist.Merge(ls.Hold)
		if !h.closed.Load() {
			snap.Spinners += int(ls.SpinningNow)
			snap.Locks = append(snap.Locks, ls)
		}
	}
	r.regMu.Unlock()
	snap.LocksRegistered = len(snap.Locks)
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
		// controller's own wake-ups queue on an idle process.
		load = int(runQueue) + osExcess
		if load > 0 {
			// Trust the sign, not the magnitude: a convoy brings dozens
			// of spinners inside one tick, and admitting only load more
			// sleepers per tick leaves most of them spinning through it.
			// Overloaded, every waiter past its grace parks, as under Block.
			t = maxTarget
		} else {
			// Current sleepers count against the budget — they would be
			// load if they woke — so zero load admits no new claim and
			// negative load wakes −load of them.
			t = load + sleeping
		}
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
	t = min(max(t, 0), maxTarget)
	r.target.Store(int64(t))
	if t == 0 {
		// Wake every sleeper: at target zero there is no herd to avoid.
		// Forced sleepers are drained only when the runtime is stopping:
		// a routine target-zero tick must not turn blocking policies
		// into 2ms polls. One pass is the whole Stop drain, because a
		// claim racing it is refused (see trySleep).
		r.wake(math.MaxInt, r.stopping.Load())
		return
	}
	// Wake exactly the surplus, computed once: a woken sleeper only
	// increments w when it gets scheduled, so re-reading s-w here
	// would count it as still asleep and a small target decrease
	// would stampede every sleeper awake. A claim racing a decrease
	// is healed by the next controller tick.
	if excess := r.sleeping() - t; excess > 0 {
		r.wake(excess, false)
	}
}

// detach takes s off h's parked list, reporting whether s was still
// attached (false means another wake path already consumed it). Caller
// holds h.mu.
func (h *Handle) detach(s *sleeper) bool {
	if s.gone {
		return false
	}
	s.gone = true
	last := len(h.parked) - 1
	moved := h.parked[last]
	h.parked[s.hpos] = moved
	moved.hpos = s.hpos
	h.parked[last] = nil
	h.parked = h.parked[:last]
	h.sleepers.Add(-1)
	return true
}

// wake detaches and signals up to n sleepers, one registered lock at a
// time. regMu is held only to list the locks with parked waiters,
// Closed ones included. Forced sleepers are skipped unless drain is set
// (the Stop drain): the controller never asked them to sleep, so it has
// no business waking them early.
func (r *Runtime) wake(n int, drain bool) {
	if !drain && r.sleeping() == 0 {
		return // no voluntary sleeper: the idle tick
	}
	var hs []*Handle
	r.regMu.Lock()
	for wp := range r.locks {
		if h := wp.Value(); h != nil && h.sleepers.Load() > 0 {
			hs = append(hs, h)
		}
	}
	r.regMu.Unlock()
	for _, h := range hs {
		h.mu.Lock()
		// Backwards, so detach's swap-with-last only moves a sleeper
		// this loop has already passed.
		for i := len(h.parked) - 1; i >= 0 && n > 0; i-- {
			s := h.parked[i]
			if s.forced && !drain {
				continue
			}
			h.detach(s)
			n--
			// A drained forced sleeper is shutdown bookkeeping, not a
			// controller decision: counting it as a ControllerWakes
			// would contradict the forced-claim semantics ("the
			// controller may not wake it") and skew the wake split.
			if s.forced {
				s.wake = wakeByDrain
			} else {
				s.wake = wakeByController
				h.controllerWakes.Add(1)
			}
			close(s.ch)
		}
		h.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// wakeOne is the unlock-side wake: it signals one of h's parked
// waiters (never the one holding the except claim, when given —
// a waiter that is itself committed to parking must not wake its own
// claim, or the wake is wasted on an immediate no-op sleep). Unlike
// controller wakes it does not consult the target — the lock is free
// and someone must go get it. The woken sleeper retires normally
// (W++), which opens room under the target that another lock's spinner
// may claim: the awake-waiter floor transfers the sleep quota rather
// than shrinking the sleeping population the controller asked for.
func (h *Handle) wakeOne(except *sleeper) bool {
	h.mu.Lock()
	var s *sleeper
	for _, cand := range h.parked {
		if cand != except {
			s = cand
			break
		}
	}
	if s == nil {
		h.mu.Unlock()
		return false
	}
	s.wake = wakeByUnlock
	h.detach(s)
	h.mu.Unlock()
	h.unlockWakes.Add(1)
	close(s.ch)
	return true
}

// admit is the voluntary claim's target test: it advances S while the
// sleeper population S−W is under the target, and reports whether it
// did.
func (r *Runtime) admit() bool {
	for {
		w := r.w.Load() // before S, as in sleeping
		s := r.s.Load()
		if int64(s-w) >= r.target.Load() {
			return false
		}
		if r.s.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// trySleep attempts the spinner-side sleep claim for h, keyed key. In
// the voluntary form it returns nil when the target leaves no openings
// (the common refusal: three atomic loads and the ClaimRefusals count).
// Under overload the target is maxTarget, so voluntary claims are
// admitted as freely as forced ones.
//
// The forced form (ParkAlways, or a keyed wait) skips the target test
// entirely: the waiter parks because its policy always parks or it
// waits for an event, not because the controller asked. Forced claims
// stay out of the S/W counters — the controller's sleeping population
// is only what it ordered asleep.
//
// Both forms re-check stopping under h.mu after counting the claim in
// h.sleepers. Stop stores stopping before its drain lists the locks
// with sleepers, so a racing claim either sees stopping and is refused
// or is listed, and then found under h.mu. A voluntary claim refused
// there has already advanced S, so it retires as a Cancel.
func (r *Runtime) trySleep(h *Handle, forced bool, key uint64) *sleeper {
	if !forced && !r.admit() {
		h.claimRefusals.Add(1)
		return nil
	}
	s := &sleeper{ch: make(chan struct{}), h: h, key: key, forced: forced}
	h.mu.Lock()
	h.sleepers.Add(1)
	if r.stopping.Load() {
		h.sleepers.Add(-1)
		h.mu.Unlock()
		if !forced {
			h.cancels.Add(1)
			r.w.Add(1)
		}
		return nil
	}
	s.hpos = len(h.parked)
	h.parked = append(h.parked, s)
	h.mu.Unlock()
	if forced {
		h.forcedClaims.Add(1)
	}
	return s
}

// retire takes s off its lock's parked list unless a wake path already
// did, reporting whether it did, and retires the claim from the buffer
// (W++ for voluntary claims).
func (r *Runtime) retire(s *sleeper) bool {
	h := s.h
	h.mu.Lock()
	detached := h.detach(s)
	h.mu.Unlock()
	if !s.forced {
		r.w.Add(1)
	}
	return detached
}

// sleep parks until a wake or the timeout, then retires. It reports
// whether the park ended on the timeout.
func (r *Runtime) sleep(s *sleeper) (timedOut bool) {
	timer := time.NewTimer(r.opts.SleepTimeout)
	select {
	case <-s.ch:
	case <-timer.C:
	}
	timer.Stop()
	timedOut = r.retire(s)
	reason := "timeout"
	if timedOut {
		s.h.timeoutWakes.Add(1)
	} else {
		// Someone woke this sleeper; s.wake (written by the waker
		// under h.mu, which retire has taken since) says who.
		reason = wakeLabels[s.wake]
	}
	if s.t0 != 0 {
		// The park ends here, whatever ended it: one observation per
		// park, spanning claim to retirement.
		d := r.rec.Now() - s.t0
		r.rec.Park.Observe(d)
		r.rec.Span(obs.EvWake, s.h.name, reason, 0, d)
	}
	return timedOut
}

// cancel retires a claim without sleeping on it: the lock turned out
// to be free after the claim, so the waiter returns to acquiring. If a
// wake consumed the sleeper first that wake is already accounted;
// either way the claim retires, keeping S/W balanced.
func (r *Runtime) cancel(s *sleeper) {
	if r.retire(s) {
		s.h.cancels.Add(1)
	}
}

// Handle is one registered lock's connection to the runtime: the
// lock-side protocol plus per-lock counters.
type Handle struct {
	rt   *Runtime
	name string

	// spinning counts this lock's spinning waiters; sleepers counts its
	// parked waiters. NoteUnlock reads them (sleepers first) to decide
	// whether a wake is needed; claim moves a waiter from one to the
	// other (sleepers up inside the claim, spinning down after), so by
	// the time a claimant re-checks the lock state, an unlocker that
	// observes the old state is guaranteed to observe the claim.
	spinning atomic.Int64
	sleepers atomic.Int64

	// mu guards parked, this lock's sleepers: every claim, retire and
	// wake of the lock takes it, and no other lock's park does.
	mu     sync.Mutex
	parked []*sleeper

	// closed hides the lock from Snapshot (Close).
	closed atomic.Bool

	// The lock's LockCounters, the only copy of each (Snapshot sums
	// them), and waitSeq, which numbers the lock's recorded contended
	// waits for the blame sample. The fields every wait writes come
	// first, apart from spinning and sleepers, which every NoteUnlock
	// reads, and from holderSite, which sampled waiters and a last
	// reader out read.
	spins            atomic.Uint64
	waitSeq          atomic.Uint64
	blocks           atomic.Uint64
	claimRefusals    atomic.Uint64
	forcedClaims     atomic.Uint64
	cancels          atomic.Uint64
	controllerWakes  atomic.Uint64
	timeoutWakes     atomic.Uint64
	timeoutWakesFree atomic.Uint64
	unlockWakes      atomic.Uint64

	// holderSite is the blame-sampled acquire site of the current
	// holder (an obs.SiteID, 0 when unknown). It is atomic — waiters
	// read it while the lock is held by someone else — but only ever
	// written by a holder: a blame-sampled acquirer publishes its site
	// after acquiring, and the matching release clears it. Unsampled
	// holders leave it zero, so waiters see "unknown holder" rather
	// than a stale site.
	holderSite atomic.Uint64

	// policy is the lock's contention policy, a Park (SetPolicy).
	policy atomic.Uint32

	// wait and hold are the lock's latency histograms, fed by Wait and
	// RecordHold; Snapshot merges them into the runtime's.
	wait *obs.Histogram
	hold *obs.Histogram
}

// Name returns the name given at registration.
func (h *Handle) Name() string { return h.name }

// Obs returns the runtime's flight recorder, for locks that emit
// their own events.
func (h *Handle) Obs() *obs.Recorder { return h.rt.rec }

// HoldStamp forwards to the recorder's sampled hold stamping (see
// obs.Recorder.HoldStamp); locks feed it their acquisition sequence.
func (h *Handle) HoldStamp(seq uint64) int64 { return h.rt.rec.HoldStamp(seq) }

// RecordHold records a (sampled) lock hold that began at start into
// the lock's hold histogram.
func (h *Handle) RecordHold(start int64) { h.hold.Observe(h.rt.rec.Now() - start) }

// Policy returns the lock's contention policy.
func (h *Handle) Policy() Park { return Park(h.policy.Load()) }

// SetPolicy hot-swaps the lock's contention policy and, when it
// changes, logs the swap (obs.EvPolicySwap). New waits run p at once; a
// waiter already inside Wait finishes under the policy it read on
// entry, so a flip under load completes as the standing waiters drain.
// No acquisition is lost or woken wrongly: every policy shares the
// lock word and the park/wake protocol.
func (h *Handle) SetPolicy(p Park) {
	if Park(h.policy.Swap(uint32(p))) != p {
		h.rt.rec.Event(obs.EvPolicySwap, h.name, p.Name(), 0)
	}
}

// PublishHolderSite stamps site as the current holder's acquire site.
// Call only while holding the lock, with the site this acquisition's
// wait returned (Wait).
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

// Close removes the lock from Snapshot. The handle remains usable (a
// closed handle only stops appearing in Snapshot), so a racing Lock
// never observes a torn-down handle, and its registry entry stays
// until the GC cleanup (see Register), so Stop still wakes its
// sleepers. Close is about prompt, deterministic metrics rather than
// correctness.
func (h *Handle) Close() { h.closed.Store(true) }

// NoteUnlock is the unlock-side wake hook: locks call it after
// releasing. When the lock has parked waiters and no spinners left, it
// wakes exactly one sleeper so a free lock never idles until the
// safety timeout just because other locks keep the global target high
// — the per-lock awake-waiter floor. The common path (no sleepers) is
// one atomic load.
//
// The protocol cannot strand a waiter: a parker claims (making its
// sleeper visible and leaving the lock's spinners) and then re-checks
// the lock state, sleeping only if the lock is still held (else
// cancel). An unlocker releases and then reads sleepers and
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
	h.wakeOne(nil)
}

// WakeThrough is the wake of keyed waits (Acquire.Key): it wakes, as
// unlock wakes, every parked waiter of the lock keyed at most key and
// returns how many it woke. It is for events that resolve a whole
// prefix of keys at once (the wal's group commit resolving every LSN up
// to its last) rather than hand the lock to one acquirer; waiters keyed
// beyond key stay parked, and an unkeyed one (key 0) is at or below any
// key. It detaches them under one h.mu hold and signals them after it:
// one lock round-trip for a commit group, not one per waiter.
//
// The caller publishes the event (the watermark a keyed waiter's Free
// reads) before calling. As in NoteUnlock, that cannot strand a waiter:
// a keyed waiter joins the parked list and then re-checks Free, so
// either the scan finds it or its re-check sees the event and cancels.
func (h *Handle) WakeThrough(key uint64) int {
	if h.sleepers.Load() == 0 {
		return 0
	}
	h.mu.Lock()
	woken := make([]*sleeper, 0, len(h.parked))
	// Backwards, so detach's swap-with-last only moves a sleeper this
	// loop has already passed.
	for i := len(h.parked) - 1; i >= 0; i-- {
		s := h.parked[i]
		if s.key > key {
			continue
		}
		s.wake = wakeByUnlock
		h.detach(s)
		woken = append(woken, s)
	}
	h.mu.Unlock()
	h.unlockWakes.Add(uint64(len(woken)))
	for _, s := range woken {
		close(s.ch)
	}
	return len(woken)
}

// Stats returns the lock's counters.
func (h *Handle) Stats() LockStats {
	return LockStats{
		Name: h.name,
		LockCounters: LockCounters{
			Spins:            h.spins.Load(),
			Blocks:           h.blocks.Load(),
			ForcedClaims:     h.forcedClaims.Load(),
			ControllerWakes:  h.controllerWakes.Load(),
			TimeoutWakes:     h.timeoutWakes.Load(),
			TimeoutWakesFree: h.timeoutWakesFree.Load(),
			UnlockWakes:      h.unlockWakes.Load(),
			Cancels:          h.cancels.Load(),
			ClaimRefusals:    h.claimRefusals.Load(),
		},
		SpinningNow: h.spinning.Load(),
		SleepingNow: h.sleepers.Load(),
		Policy:      h.Policy().Name(),
		Wait:        h.wait.Snapshot(),
		Hold:        h.hold.Snapshot(),
	}
}
