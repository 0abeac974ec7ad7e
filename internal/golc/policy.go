package golc

import (
	"fmt"
	"sort"

	lcrt "repro/internal/golc/runtime"
)

// A ContentionPolicy names the wait side of lock acquisition: what a
// waiter does between failing the uncontended fast path and holding
// the lock. The locks (Mutex, RWMutex) are pure state machines — an
// atomic word and a runtime Handle — that leave every spin, park and
// wake decision to the Handle's Wait, so one lock can be spun on,
// blocked on or load-controlled, and switch at runtime (SetPolicy).
// This is the paper's thesis one level down: as the runtime decouples
// contention management from scheduling, the policy decouples the wait
// strategy from the lock.
//
// It is the runtime's Park: the policy lives on the lock's Handle, the
// one copy that Handle.Wait reads and Runtime.SetPolicy flips.
type ContentionPolicy = lcrt.Park

// The policies, a closed set. All three run the runtime's one acquire
// loop, Handle.Wait, and differ only in whether it parks:
//
//   - LoadControlled, the zero value ("lc"), parks when the
//     controller's sleep target admits the claim, after a brief grace
//     spin: the paper's augmented-spinlock client protocol (§3.1.2).
//     With no excess load the target admits no claim and it is Spin;
//     under excess load it parks as promptly as Block.
//   - Spin ("spin") never parks: the uncontrolled baseline, the paper's
//     "what collapses under oversubscription" comparison.
//   - Block ("block") parks after the same grace spin whatever the
//     load, relying on the unlock-side wake for handoff: the classic
//     spin-then-block lock, on the same per-lock lists.
const (
	LoadControlled = lcrt.ParkAdmitted
	Spin           = lcrt.ParkNever
	Block          = lcrt.ParkAlways
)

// PolicyByName resolves a policy by name, for flags and HTTP. The set
// is closed; the error lists it.
func PolicyByName(name string) (ContentionPolicy, error) {
	for p := range ContentionPolicy(lcrt.NumParks) {
		if p.Name() == name {
			return p, nil
		}
	}
	return LoadControlled, fmt.Errorf("golc: unknown contention policy %q (have: %v)", name, PolicyNames())
}

// PolicyNames returns the names PolicyByName resolves, sorted.
func PolicyNames() []string {
	names := make([]string, 0, lcrt.NumParks)
	for p := range ContentionPolicy(lcrt.NumParks) {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return names
}
