package golc

import (
	"context"
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
// LoadControlled); resolve names through PolicyByName. See
// Mutex.SetPolicy / RWMutex.SetPolicy for runtime hot-swap.
func WithPolicy(p ContentionPolicy) Option { return func(c *config) { c.pol = p } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.rt == nil {
		c.rt = lcrt.Default()
	}
	if c.pol == nil {
		c.pol = LoadControlled
	}
	return c
}

// Mutex is THE mutual-exclusion lock of this package: a TATAS lock
// word whose entire wait side — spin cadence, spin-then-park
// threshold, slot-pool parking, or none of the above — is owned by a
// swappable ContentionPolicy. Under the LoadControlled policy it is
// the paper's augmented spinlock (§3.1.2); under Spin it is the
// uncontrolled baseline; under Block it is a spin-then-block lock on
// the same slot pool. The unlock path always offers the unlock-side
// wake (one atomic load when nothing is parked), so a free lock never
// idles until the safety timeout regardless of policy.
//
// A Mutex must be created with New; it registers with a load-control
// Runtime at construction.
type Mutex struct {
	noCopy noCopy

	state atomic.Int32
	pol   atomic.Pointer[ContentionPolicy]
	h     *lcrt.Handle

	// holdSeq counts acquisitions and holdStart carries the recorder
	// stamp of a sampled hold (0 otherwise). Both are plain fields
	// protected by the mutex itself: they are only touched between a
	// successful acquire and the matching release, which the lock
	// word's CAS/Swap pair orders. TryLock skips them (it must stay a
	// single CAS), so TryLock-ed holds are simply never sampled.
	holdSeq   uint64
	holdStart int64

	// ownSite shadows the handle's published holder site (which is
	// atomic, because waiters read it). Like holdStart it is protected
	// by the mutex itself, so the unlock path learns whether there is
	// anything to clear from a plain read — zero cost for the unsampled
	// (overwhelmingly common) case.
	ownSite uint32
}

// New returns a mutex named for metrics, registered with the option's
// runtime (default: the process-wide runtime) and waiting according to
// the option's policy (default: LoadControlled).
//
//	mu := golc.New("kv/shard-007", golc.WithPolicy(golc.Spin), golc.WithRuntime(rt))
func New(name string, opts ...Option) *Mutex {
	c := buildConfig(opts)
	m := &Mutex{h: c.rt.Register(name)}
	m.pol.Store(&c.pol)
	m.h.NotePolicy(c.pol.Name())
	return m
}

// Policy returns the lock's current contention policy.
func (m *Mutex) Policy() ContentionPolicy { return *m.pol.Load() }

// SetPolicy hot-swaps the lock's contention policy. New acquisition
// attempts use p immediately; a waiter already inside the old policy's
// Wait finishes its acquisition under the old policy (it re-reads
// nothing mid-wait), so a flip under load completes as the standing
// waiters drain — no acquisition is ever lost or woken incorrectly,
// because all policies share the same lock word and park/wake
// protocol.
func (m *Mutex) SetPolicy(p ContentionPolicy) {
	m.pol.Store(&p)
	m.h.NotePolicy(p.Name())
	m.h.Obs().Event(obs.EvPolicySwap, m.h.Name(), p.Name(), 0)
}

// Close unregisters the mutex from its runtime's metrics registry. The
// mutex stays usable; Close only removes it from snapshots. The
// registry is also GC-aware (an unreachable mutex's entry is reclaimed
// automatically), so Close is about prompt, deterministic removal —
// e.g. retiring a live lock's metrics — not about preventing leaks.
func (m *Mutex) Close() { m.h.Close() }

// Stats returns the lock's per-lock counters.
func (m *Mutex) Stats() lcrt.LockStats { return m.h.Stats() }

// TryLock acquires the mutex if it is free, without spinning or
// parking, and reports whether it succeeded. A failed TryLock touches
// no runtime state (no census entry, no metrics), so it is safe on
// paths that must never generate load — e.g. contention probes that
// fall back to Lock and count the miss.
func (m *Mutex) TryLock() bool {
	return m.state.CompareAndSwap(0, 1)
}

// stampHold marks an acquisition for hold-time measurement. Sampled
// (obs.Recorder.HoldStamp): the unsampled common case is one counter
// increment and one or two atomic loads, so the uncontended path
// stays within the flight recorder's <2% overhead budget.
func (m *Mutex) stampHold() {
	m.holdSeq++
	m.holdStart = m.h.HoldStamp(m.holdSeq)
}

// stampSite publishes this (blame-sampled) acquisition's call site as
// the lock's current holder site, shadowed in ownSite so Unlock can
// clear it from a plain read. Only sampled acquirers publish: they
// already paid for the stack capture, and an always-on publish would
// put an atomic store on every contended acquisition for pairing that
// sampling mostly discards anyway.
func (m *Mutex) stampSite(site obs.SiteID) {
	m.ownSite = uint32(site)
	m.h.PublishHolderSite(site)
}

// Lock acquires the mutex, waiting per the current ContentionPolicy.
func (m *Mutex) Lock() {
	// Uncontended fast path: identical under every policy.
	if m.state.CompareAndSwap(0, 1) {
		m.stampHold()
		return
	}
	// Background can never cancel, so a non-nil error here means the
	// policy broke Wait's contract; returning would let the caller
	// enter the critical section without the lock. Fail loudly.
	if err := m.lockSlow(context.Background()); err != nil {
		panic("golc: policy " + m.Policy().Name() + " abandoned an uncancellable Lock: " + err.Error())
	}
}

// LockCtx is Lock with a cancellation route: if ctx is cancelled
// before the lock is acquired — mid-spin or mid-park, per the policy —
// it returns ctx.Err() with the lock not held. A nil error means the
// lock is held exactly as after Lock.
func (m *Mutex) LockCtx(ctx context.Context) error {
	if m.state.CompareAndSwap(0, 1) {
		m.stampHold()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.lockSlow(ctx)
}

func (m *Mutex) lockSlow(ctx context.Context) error {
	// The wait-time seam: bracketing Wait here (not inside any policy)
	// is what makes every policy's waits measurable for free. Blame
	// rides the same seam: a sampled waiter captures its own acquire
	// site and reads whoever holds the lock as the wait begins — that
	// holder built the convoy this waiter is about to join.
	start := m.h.WaitStart()
	waiter := m.h.BlameSample(1)
	var holder obs.SiteID
	if waiter != 0 {
		holder = m.h.HolderSiteID()
	}
	err := m.Policy().Wait(ctx, m.h, Acquire{
		Try:  func() bool { return m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) },
		Free: func() bool { return m.state.Load() == 0 },
	})
	if err != nil {
		if start != 0 {
			m.h.Obs().Event(obs.EvCtxCancel, m.h.Name(), "", 0)
		}
		return err
	}
	if start != 0 {
		m.h.RecordWait(start)
	}
	m.stampHold()
	if waiter != 0 {
		m.stampSite(waiter)
		if start != 0 {
			m.h.RecordBlame(waiter, holder, start)
		}
	}
	return nil
}

// Unlock releases the mutex, waking a parked waiter if no spinner is
// left to take the lock (see runtime.Handle.NoteUnlock). A sampled
// hold is read (and cleared) before the release — after the Swap the
// fields belong to the next holder — and recorded after it, off the
// critical path.
func (m *Mutex) Unlock() {
	start := m.holdStart
	if start != 0 {
		m.holdStart = 0
	}
	if m.ownSite != 0 {
		// This hold was blame-sampled: retract the published holder
		// site before the release hands the fields to the next holder.
		m.ownSite = 0
		m.h.ClearHolderSite()
	}
	if m.state.Swap(0) != 1 {
		panic("golc: unlock of unlocked mutex")
	}
	if start != 0 {
		m.h.RecordHold(start)
	}
	m.h.NoteUnlock()
}
