// Package golc provides real (non-simulated) load-controlled locks for
// Go programs — the paper's augmented-spinlock client protocol (§3.1.2)
// adapted to the Go runtime.
//
// The locks themselves are thin: ONE TATAS mutex (Mutex) and ONE
// writer-preferring reader/writer variant (RWMutex), each waiting
// under a swappable ContentionPolicy — Spin (uncontrolled baseline),
// Block (spin-then-block on the lock's own parked list), or
// LoadControlled, the default (the paper's protocol: spinners interleave
// sleep-buffer checks into their spin loops and park when the controller
// says the system is oversubscribed). Policies are selected by value
// (WithPolicy) or by name (PolicyByName) and hot-swapped on live locks
// (SetPolicy, or the runtime's SetPolicy for every lock at once). The
// policy lives on the lock's runtime Handle, its one copy, and every
// contended wait of every lock is one call of that Handle's Wait, the
// single seam: it reads the policy once, then spins, parks and records
// the wait. All release paths wake a parked waiter when no spinner
// remains (runtime.Handle.NoteUnlock), so a free lock never idles until
// the safety timeout under any policy.
//
// All load-control policy state lives in the process-wide runtime
// (internal/golc/runtime): one controller goroutine, one load sensor,
// and one sleep buffer (the paper's S and W counters) shared by every
// lock in the process, which is the paper's central architectural
// claim. Locks register with a Runtime at construction and receive a
// Handle carrying the protocol, the lock's parked waiters under the
// Handle's own mutex, and per-lock metrics; no park takes a
// process-wide lock.
//
// The adaptation: the paper's controller compares the OS's runnable
// threads with the hardware contexts, read via microstate accounting.
// A Go program is scheduled at two levels, so the sensor reads both:
// goroutines runnable but waiting for a P (Little's law over the Go
// scheduler's latency histogram in runtime/metrics — a 1-in-8 sampled
// signal) plus OS threads runnable beyond the CPUs (/proc/loadavg; 0
// where there is none). The sign of that load sets the sleep target:
// with no excess load it is at most the waiters already asleep, so lc
// is a spinlock; with excess load it is its maximum, so lc parks every
// waiter past its grace spin, as Block does. A runtime
// LoadFunc replaces the sensor in tests.
package golc
