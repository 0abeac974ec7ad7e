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

// The policies, a closed set. All three run the runtime's one acquire
// loop, Handle.Wait, and differ only in its park mode:
//
//   - LoadControlled, the zero value, parks when the controller's sleep
//     target admits the claim (lcrt.ParkAdmitted), after a brief grace
//     spin: the paper's augmented-spinlock client protocol (§3.1.2).
//     With no excess load the target admits no claim and it is Spin;
//     under excess load it parks as promptly as Block.
//   - Spin never parks (lcrt.ParkNever): the uncontrolled baseline, the
//     paper's "what collapses under oversubscription" comparison.
//   - Block parks after the same grace spin whatever the load
//     (lcrt.ParkAlways), relying on the unlock-side wake for handoff:
//     the classic spin-then-block lock, on the same per-lock lists.
const (
	LoadControlled ContentionPolicy = iota
	Spin
	Block
)

// policies is what each policy is: its stable name ("spin", "block",
// "lc" — used by flags, lcserve's /policy endpoint, and stats) and the
// runtime park mode its waits run with.
var policies = [...]struct {
	name string
	park lcrt.Park
}{
	LoadControlled: {"lc", lcrt.ParkAdmitted},
	Spin:           {"spin", lcrt.ParkNever},
	Block:          {"block", lcrt.ParkAlways},
}

// Name returns the policy's stable name.
func (p ContentionPolicy) Name() string { return policies[p].name }

// Wait is the wait seam: every contended wait — Mutex and RWMutex slow
// paths, the wal's durability wait — is this call, which runs the
// runtime's Handle.Wait under pol's park mode. It blocks until a.Try
// succeeds and returns the waiter's blame site (0 unless this wait was
// sampled) for the new holder to publish.
//
// Call it one frame below the exported entry point (Lock → lockSlow →
// Wait): the sampled site is the stack from that entry point up.
func Wait(h *lcrt.Handle, pol ContentionPolicy, a lcrt.Acquire) obs.SiteID {
	return h.Wait(policies[pol].park, a)
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
