package golc

import (
	"sync/atomic"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
)

// config collects the New/NewRW options.
type config struct {
	rt  *lcrt.Runtime
	pol ContentionPolicy
}

// Option configures New and NewRW.
type Option func(*config)

// WithRuntime registers the lock with rt instead of the process-wide
// Default runtime. Every lock registers with some runtime — load
// control decisions are global, which is the point — even under
// policies that never consult the controller (their census and stats
// still flow through it).
func WithRuntime(rt *lcrt.Runtime) Option { return func(c *config) { c.rt = rt } }

// WithPolicy sets the lock's initial contention policy (default
// LoadControlled, the zero value), by value or resolved through
// PolicyByName. See SetPolicy for runtime hot-swap.
func WithPolicy(p ContentionPolicy) Option { return func(c *config) { c.pol = p } }

// core is what Mutex and RWMutex are apart from their lock word: the
// runtime handle, which holds the policy, and the bookkeeping of one
// exclusive hold. The lock types embed it, so Policy, SetPolicy, Close
// and Stats are declared once for both.
type core struct {
	h *lcrt.Handle

	// holdSeq counts acquisitions and holdStart carries the recorder
	// stamp of a sampled hold (0 otherwise). Both are plain fields
	// protected by the (write) hold itself: they are only touched between
	// a successful acquire and the matching release, which the lock
	// word's atomics order. TryLock skips them (it must stay a single
	// CAS), so TryLock-ed holds are simply never sampled. Neither are
	// read holds: they overlap, so no single release "ends" one, and
	// per-reader stamping would put shared writes on the read fast path.
	holdSeq   uint64
	holdStart int64

	// ownSite shadows the handle's published holder site (which is
	// atomic, because waiters read it). Like holdStart it is protected
	// by the hold itself, so the unlock path learns whether there is
	// anything to clear from a plain read — zero cost for the unsampled
	// (overwhelmingly common) case.
	ownSite uint32
}

// init registers the lock under name with the options' runtime and
// installs the options' policy.
func (c *core) init(name string, opts []Option) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.rt == nil {
		cfg.rt = lcrt.Default()
	}
	c.h = cfg.rt.Register(name)
	c.h.SetPolicy(cfg.pol)
}

// Policy returns the lock's current contention policy.
func (c *core) Policy() ContentionPolicy { return c.h.Policy() }

// SetPolicy hot-swaps the lock's contention policy (see
// runtime.Handle.SetPolicy): new waits use p immediately, and a waiter
// already waiting finishes under the old policy.
func (c *core) SetPolicy(p ContentionPolicy) { c.h.SetPolicy(p) }

// Close unregisters the lock from its runtime's metrics registry. The
// lock stays usable; Close only removes it from snapshots. The
// registry is also GC-aware (an unreachable lock's entry is reclaimed
// automatically), so Close is about prompt, deterministic removal —
// e.g. retiring a live lock's metrics — not about preventing leaks.
func (c *core) Close() { c.h.Close() }

// Stats returns the lock's per-lock counters.
func (c *core) Stats() lcrt.LockStats { return c.h.Stats() }

// stampHold marks an exclusive acquisition for hold-time measurement.
// Sampled (obs.Recorder.HoldStamp): the unsampled common case is one
// counter increment and one or two atomic loads, so the uncontended
// path stays within the flight recorder's <2% overhead budget.
func (c *core) stampHold() {
	c.holdSeq++
	c.holdStart = c.h.HoldStamp(c.holdSeq)
}

// stampWaited is stampHold for an exclusive hold that came out of Wait.
// A blame-sampled waiter also publishes its call site as the lock's
// current holder site, shadowed in ownSite so release can clear it from
// a plain read. Only sampled acquirers publish: they already paid for
// the stack capture, and an always-on publish would put an atomic store
// on every contended acquisition for pairing that sampling mostly
// discards anyway.
func (c *core) stampWaited(site obs.SiteID) {
	c.stampHold()
	if site != 0 {
		c.ownSite = uint32(site)
		c.h.PublishHolderSite(site)
	}
}

// releasing is the half of an exclusive Unlock that must run before the
// lock word is released — after it the fields belong to the next
// holder. It takes (and clears) the sampled hold stamp, for Unlock to
// record once the lock is free, and retracts a published holder site.
func (c *core) releasing() int64 {
	start := c.holdStart
	if start != 0 {
		c.holdStart = 0
	}
	if c.ownSite != 0 {
		c.ownSite = 0
		c.h.ClearHolderSite()
	}
	return start
}

// Mutex is THE mutual-exclusion lock of this package: a TATAS lock
// word whose wait side is its swappable ContentionPolicy — under
// LoadControlled, the paper's augmented spinlock (§3.1.2). The unlock
// path always offers the unlock-side wake (one atomic load when nothing
// is parked), so a free lock never idles until the safety timeout
// regardless of policy.
//
// A Mutex must be created with New; it registers with a load-control
// Runtime at construction.
type Mutex struct {
	noCopy noCopy

	state atomic.Int32
	core
}

// New returns a mutex named for metrics, registered with the option's
// runtime (default: the process-wide runtime) and waiting according to
// the option's policy (default: LoadControlled).
//
//	mu := golc.New("kv/shard-007", golc.WithPolicy(golc.Spin), golc.WithRuntime(rt))
func New(name string, opts ...Option) *Mutex {
	m := &Mutex{}
	m.init(name, opts)
	return m
}

// TryLock acquires the mutex if it is free, without spinning or
// parking, and reports whether it succeeded. A failed TryLock touches
// no runtime state (no census entry, no metrics), so it is safe on
// paths that must never generate load — e.g. contention probes that
// fall back to Lock and count the miss.
func (m *Mutex) TryLock() bool {
	return m.state.CompareAndSwap(0, 1)
}

// Lock acquires the mutex, waiting per the current ContentionPolicy.
func (m *Mutex) Lock() {
	// Uncontended fast path: identical under every policy.
	if m.state.CompareAndSwap(0, 1) {
		m.stampHold()
		return
	}
	m.lockSlow()
}

func (m *Mutex) lockSlow() {
	m.stampWaited(m.h.Wait(lcrt.Acquire{
		Try:  func() bool { return m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) },
		Free: func() bool { return m.state.Load() == 0 },
	}))
}

// Unlock releases the mutex, waking a parked waiter if no spinner is
// left to take the lock (see runtime.Handle.NoteUnlock). A sampled
// hold is read (and cleared) before the release and recorded after it,
// off the critical path.
func (m *Mutex) Unlock() {
	start := m.releasing()
	if m.state.Swap(0) != 1 {
		panic("golc: unlock of unlocked mutex")
	}
	if start != 0 {
		m.h.RecordHold(start)
	}
	m.h.NoteUnlock()
}
