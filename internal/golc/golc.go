// Package golc provides real (non-simulated) load-controlled locks for
// Go programs — the paper's augmented-spinlock client protocol (§3.1.2)
// adapted to the Go runtime.
//
// The locks themselves are thin: ONE TATAS mutex (Mutex) and ONE
// writer-preferring reader/writer variant (RWMutex), each parameterized
// by a swappable ContentionPolicy that owns the entire wait side —
// spin cadence, grace spin, slot-pool parking, context cancellation.
// The built-in policies are Spin (uncontrolled baseline), Block
// (spin-then-block on the shared slot pool), and LoadControlled (the
// paper's protocol: spinners interleave slot-buffer checks into their
// spin loops and park when the controller says the system is
// oversubscribed). Policies are selected by value
// (golc.New(name, golc.WithPolicy(golc.Spin)) — a custom
// ContentionPolicy goes in the same way), the built-ins also by name
// (PolicyByName), and hot-swapped on live locks (SetPolicy). Every
// contended wait of every lock is one call of Wait, the single seam
// that runs the policy and records the wait. All release paths wake a
// parked waiter when no spinner remains (runtime.Handle.NoteUnlock),
// so a free lock never idles until the safety timeout under any
// policy.
//
// All load-control policy state lives in the process-wide runtime
// (internal/golc/runtime): one controller goroutine, one load sensor,
// and one sleep-slot pool shared by every lock in the process, which
// is the paper's central architectural claim. Locks register with a
// Runtime at construction and receive a Handle carrying the protocol
// and per-lock metrics.
//
// The adaptation: the paper's controller compares the OS's runnable
// threads with the hardware contexts, read via microstate accounting.
// A Go program is scheduled at two levels, so the sensor reads both:
// goroutines runnable but waiting for a P (Little's law over the Go
// scheduler's latency histogram in runtime/metrics — a 1-in-8 sampled
// signal) plus OS threads runnable beyond the CPUs (/proc/loadavg; 0
// where there is none). That load plus the waiters already asleep is
// the sleep target: with no excess load lc is a spinlock, under load
// it parks as promptly as Block but only as many waiters as the load
// calls for. A runtime LoadFunc replaces the sensor in tests.
package golc

// Locker is the subset of sync.Locker this package implements.
type Locker interface {
	Lock()
	Unlock()
}
