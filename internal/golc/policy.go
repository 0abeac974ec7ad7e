package golc

import (
	"context"
	"fmt"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
)

// A ContentionPolicy owns the entire wait side of lock acquisition:
// what a waiter does between failing the uncontended fast path and
// holding the lock. The locks in this package (Mutex, RWMutex) are
// pure state machines — an atomic word and a runtime Handle — and
// delegate every spin, yield, park, and wake decision to their policy,
// so the same lock can be spun on, blocked on, or load-controlled, and
// can switch strategy at runtime (SetPolicy) without changing type.
// This mirrors the paper's core thesis one level down: just as the
// process-wide runtime decouples contention management from
// scheduling, the policy decouples the wait strategy from the lock.
//
// Implementations must be safe for concurrent use by many waiters of
// many locks: the built-ins are stateless values, and any per-waiter
// state belongs on the Wait stack. The built-ins are also selectable by
// Name (PolicyByName, for flags and HTTP); a custom policy is handed to
// WithPolicy or SetPolicy by value. Nothing but Wait (the function
// below) calls a policy's Wait method.
type ContentionPolicy interface {
	// Name is the policy's stable name ("spin", "block", "lc"), used by
	// flags, lcserve's /policy endpoint, and stats.
	Name() string

	// Wait blocks the calling goroutine until a.Try succeeds (returns
	// nil) or ctx is cancelled (returns ctx.Err(), with the lock not
	// acquired and all census/gate state restored). Those are the ONLY
	// legal outcomes: a Wait that returns non-nil under a ctx that was
	// not cancelled breaks the lock (plain Lock has no error to
	// return — it panics on such a policy rather than hand back an
	// unheld lock). The caller has already failed one uncontended
	// attempt. h is the lock's runtime handle: the policy is expected
	// to keep the spinner census honest (Spinning/NoteSpins) and may
	// claim sleep slots through it. A nil or never-cancellable ctx
	// (context.Background) must cost nothing.
	Wait(ctx context.Context, h *lcrt.Handle, a Acquire) error
}

// Acquire is the lock's side of one blocked acquisition: closures over
// the lock's own atomic state, handed to the policy's Wait. Only Try
// and Free are mandatory.
type Acquire struct {
	// Try makes one acquire attempt (for the TATAS locks here: a test
	// then a CAS) and reports whether the lock is now held.
	Try func() bool

	// Free reports whether the lock looks acquirable right now. The
	// policy must consult it after claiming a sleep slot and before
	// sleeping: if the holder released in between (and saw the claim),
	// parking would strand the unlock-side wake, so the policy cancels
	// the claim and goes take the free lock instead.
	Free func() bool

	// PrePark, when non-nil, is called with the claimed ticket just
	// before the policy sleeps, and PostPark after the sleep returns
	// (always paired, even when the sleep was cancelled). They exist
	// for gates a waiter must not hold while unconscious: the RWMutex
	// writer drops its writer-preference claim in PrePark — waking a
	// reader the doomed gate had stranded, via Ticket.NoteRelease —
	// and re-raises it in PostPark.
	PrePark  func(t lcrt.Ticket)
	PostPark func()
}

// Wait is the wait seam: the ONE place in the tree a ContentionPolicy's
// Wait method is called (lclint's waitseam analyzer holds everything
// else to that), bracketed by the runtime's BeginWait/End. Every
// contended wait — Mutex and RWMutex slow paths, LockNested, the wal's
// durability wait — is this call, which is what makes every wait under
// every policy, built-in or custom, stamped into the wait histograms,
// sampled into the blame matrix and reported when cancelled, with no
// cooperation from the policy. It returns the waiter's blame site (0
// unless this wait was sampled and succeeded) for the new holder to
// publish, and pol's error.
//
// Call it one frame below the exported entry point (Lock → lockSlow →
// Wait): the sampled site is the stack from that entry point up.
func Wait(ctx context.Context, h *lcrt.Handle, pol ContentionPolicy, a Acquire) (obs.SiteID, error) {
	w := h.BeginWait(2)
	err := pol.Wait(ctx, h, a)
	return w.End(err), err
}

// Built-in policies. All three run the same acquire loop (one TATAS
// poll per iteration, scheduler yields on the shared cadence) and
// differ only in whether and how they park:
//
//   - Spin never parks: the uncontrolled baseline, the paper's "what
//     collapses under oversubscription" comparison.
//   - Block parks whenever it can: a brief grace spin (short holds
//     resolve in well under it), then an unconditional sleep-slot
//     claim, relying on the unlock-side wake for handoff. This is the
//     classic spin-then-block lock, built from the same slot pool.
//   - LoadControlled parks when told to: the same grace spin, then
//     waiters claim against the controller's sleep target — the
//     paper's augmented-spinlock client protocol (§3.1.2). With no
//     excess load the target is zero and it is Spin; under load it
//     parks as promptly as Block, but only as many waiters as the
//     load calls for.
var (
	Spin           ContentionPolicy = spinPolicy{}
	Block          ContentionPolicy = blockPolicy{}
	LoadControlled ContentionPolicy = lcPolicy{}
)

// graceSpins is the spin every parking policy makes before its first
// claim: long enough that a briefly-held latch hands off without a
// sleep, short enough that real convoys deschedule almost immediately.
// Whether to park after it is the controller's call (lc) or a given
// (block), not a matter of spinning longer.
const graceSpins = 128

type spinPolicy struct{}

func (spinPolicy) Name() string { return "spin" }

func (spinPolicy) Wait(ctx context.Context, h *lcrt.Handle, a Acquire) error {
	// park=0: the cadence fires every check interval, which here gates
	// only the ctx poll — claim is nil, so the loop never parks.
	return waitLoop(ctx, h, a, 0, nil)
}

type blockPolicy struct{}

func (blockPolicy) Name() string { return "block" }

func (blockPolicy) Wait(ctx context.Context, h *lcrt.Handle, a Acquire) error {
	return waitLoop(ctx, h, a, graceSpins, (*lcrt.Handle).ClaimForced)
}

type lcPolicy struct{}

func (lcPolicy) Name() string { return "lc" }

func (lcPolicy) Wait(ctx context.Context, h *lcrt.Handle, a Acquire) error {
	return waitLoop(ctx, h, a, graceSpins, (*lcrt.Handle).TryClaim)
}

// waitLoop is the shared acquire loop behind the built-in policies:
// TATAS polling on the package spin cadence, a ctx check once per park
// interval, and — when claim is non-nil and the waiter is past its
// grace spin — the claim/re-check/sleep protocol every lock in this
// package used to hand-roll. Custom policies are free to ignore it and
// implement Wait from scratch.
func waitLoop(ctx context.Context, h *lcrt.Handle, a Acquire, park int, claim func(*lcrt.Handle) (lcrt.Ticket, bool)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	h.Spinning(1)
	c := cadence{park: park}
	// leave ends the wait without the lock (a cancellation). This waiter
	// may be the very spinner that made a concurrent NoteUnlock skip its
	// wake, so if the lock is free on the way out, offer the wake again:
	// otherwise a parked waiter sits on a free lock until the timeout.
	leave := func(err error) error {
		h.Spinning(-1)
		h.NoteSpins(c.spins)
		if a.Free() {
			h.NoteUnlock()
		}
		return err
	}
	for {
		if a.Try() {
			h.Spinning(-1)
			h.NoteSpins(c.spins)
			return nil
		}
		if !c.next() {
			continue
		}
		// Once per park interval: cheap cancellation poll, then the
		// park path.
		if done != nil {
			select {
			case <-done:
				return leave(ctx.Err())
			default:
			}
		}
		if claim == nil {
			continue
		}
		if t, ok := claim(h); ok {
			// Re-check after the claim: if the lock went free in
			// between, parking would strand the unlock-side wake.
			if a.Free() {
				t.Cancel()
			} else {
				if a.PrePark != nil {
					a.PrePark(t)
				}
				err := t.SleepCtx(ctx)
				if a.PostPark != nil {
					a.PostPark()
				}
				if err != nil {
					return leave(err)
				}
			}
			h.NoteSpins(c.spins)
			c.spins = 0
		}
	}
}

// PolicyByName resolves a built-in policy by name, for flags and HTTP.
// The set is closed; the error lists it.
func PolicyByName(name string) (ContentionPolicy, error) {
	switch name {
	case "spin":
		return Spin, nil
	case "block":
		return Block, nil
	case "lc":
		return LoadControlled, nil
	}
	return nil, fmt.Errorf("golc: unknown contention policy %q (have: %v)", name, PolicyNames())
}

// PolicyNames returns the names PolicyByName resolves, sorted.
func PolicyNames() []string { return []string{"block", "lc", "spin"} }
