package golc

import (
	"fmt"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
)

// A ContentionPolicy names the wait side of lock acquisition: what a
// waiter does between failing the uncontended fast path and holding
// the lock. The locks (Mutex, RWMutex) are pure state machines — an
// atomic word and a runtime Handle — that leave every spin, park and
// wake decision to Wait, so one lock can be spun on, blocked on or
// load-controlled, and switch at runtime (SetPolicy). This is the
// paper's thesis one level down: as the runtime decouples contention
// management from scheduling, the policy decouples the wait strategy
// from the lock.
type ContentionPolicy uint8

// The policies, a closed set. All three run the same acquire loop (one
// TATAS poll per iteration, scheduler yields on the shared cadence) and
// differ only in whether and how they park:
//
//   - LoadControlled, the zero value, parks when told to: a brief grace
//     spin, then waiters claim against the controller's sleep target —
//     the paper's augmented-spinlock client protocol (§3.1.2). With no
//     excess load the target admits no claim and it is Spin; while the
//     sensor reads excess load the target is at its maximum and it
//     parks as promptly as Block. It switches on the load's sign.
//   - Spin never parks: the uncontrolled baseline, the paper's "what
//     collapses under oversubscription" comparison.
//   - Block parks whenever it can: the same grace spin (short holds
//     resolve in well under it), then an unconditional sleep claim,
//     relying on the unlock-side wake for handoff. This is the classic
//     spin-then-block lock, parked on the same per-lock lists.
const (
	LoadControlled ContentionPolicy = iota
	Spin
	Block
)

// graceSpins is the spin every parking policy makes before its first
// claim: long enough that a briefly-held latch hands off without a
// sleep, short enough that real convoys deschedule almost immediately.
// Whether to park after it is the controller's call (lc) or a given
// (block), not a matter of spinning longer.
const graceSpins = 128

// policies is what each policy is: its stable name ("spin", "block",
// "lc" — used by flags, lcserve's /policy endpoint, and stats) and the
// waitLoop arguments it runs with.
var policies = [...]struct {
	name  string
	grace int
	claim func(*lcrt.Handle) (lcrt.Ticket, bool)
}{
	LoadControlled: {"lc", graceSpins, (*lcrt.Handle).TryClaim},
	Spin:           {"spin", 0, nil},
	Block:          {"block", graceSpins, (*lcrt.Handle).ClaimForced},
}

// Name returns the policy's stable name.
func (p ContentionPolicy) Name() string { return policies[p].name }

// Acquire is the lock's side of one blocked acquisition: closures over
// the lock's own atomic state, handed to Wait. Only Try and Free are
// mandatory.
type Acquire struct {
	// Try makes one acquire attempt (for the TATAS locks here: a test
	// then a CAS) and reports whether the lock is now held.
	Try func() bool

	// Free reports whether the lock looks acquirable right now. Wait
	// consults it after claiming sleep and before sleeping: if
	// the holder released in between (and saw the claim), parking would
	// strand the unlock-side wake, so the claim is cancelled and the
	// waiter goes to take the free lock instead.
	Free func() bool

	// PrePark, when non-nil, is called with the claimed ticket just
	// before the waiter sleeps, and PostPark after the sleep returns.
	// They exist for gates a waiter must not hold while unconscious: the
	// RWMutex writer drops its writer-preference claim in PrePark —
	// waking a reader the doomed gate had stranded, via
	// Ticket.NoteRelease — and re-raises it in PostPark.
	PrePark  func(t lcrt.Ticket)
	PostPark func()
}

// Wait is the wait seam: every contended wait — Mutex and RWMutex slow
// paths, the wal's durability wait — is this call. It blocks until a.Try
// succeeds, and has no other way out: physical waits are uncancellable
// by design. A park ends on a controller wake, an unlock wake or the
// safety timeout, and the waiter goes back to acquiring. The caller has
// already failed one uncontended attempt.
//
// The runtime's BeginWait/End bracket around pol's loop is what makes
// every wait under every policy stamped into the wait histograms and
// sampled into the blame matrix. It returns the waiter's blame site (0
// unless this wait was sampled) for the new holder to publish.
//
// Call it one frame below the exported entry point (Lock → lockSlow →
// Wait): the sampled site is the stack from that entry point up.
func Wait(h *lcrt.Handle, pol ContentionPolicy, a Acquire) obs.SiteID {
	w := h.BeginWait(2)
	p := &policies[pol]
	waitLoop(h, a, p.grace, p.claim)
	return w.End()
}

// waitLoop is the acquire loop behind every policy: TATAS polling on
// the package spin cadence and — when claim is non-nil and the waiter
// is past its grace spin — the claim/re-check/sleep protocol once per
// park interval (for Spin, claim is nil and the loop never parks).
func waitLoop(h *lcrt.Handle, a Acquire, grace int, claim func(*lcrt.Handle) (lcrt.Ticket, bool)) {
	h.Spinning(1)
	c := cadence{park: grace}
	for {
		if a.Try() {
			h.Spinning(-1)
			h.NoteSpins(c.spins)
			return
		}
		if !c.next() || claim == nil {
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
				timedOut := t.Sleep()
				if a.PostPark != nil {
					a.PostPark()
				}
				if timedOut && a.Free() {
					// The backstop found the lock free: a release
					// missed this waiter (or raced the timeout).
					h.NoteTimeoutWakeFree()
				}
			}
			h.NoteSpins(c.spins)
			c.spins = 0
		}
	}
}

// PolicyByName resolves a policy by name, for flags and HTTP. The set
// is closed; the error lists it.
func PolicyByName(name string) (ContentionPolicy, error) {
	for p := range policies {
		if policies[p].name == name {
			return ContentionPolicy(p), nil
		}
	}
	return LoadControlled, fmt.Errorf("golc: unknown contention policy %q (have: %v)", name, PolicyNames())
}

// PolicyNames returns the names PolicyByName resolves, sorted.
func PolicyNames() []string { return []string{"block", "lc", "spin"} }
