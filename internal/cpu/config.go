// Package cpu models a multiprocessor machine with a time-sharing OS
// scheduler on top of the sim kernel.
//
// The model reproduces the scheduling behaviour that the paper's
// pathologies depend on: a fixed number of hardware contexts, a global
// FIFO run queue with round-robin time slicing, a periodic scheduler
// tick at which quanta are enforced and park timeouts are processed,
// context-switch costs on every dispatch, precise (interrupt-driven)
// I/O completions and unparks, and per-process microstate accounting
// whose read cost grows with the thread count.
//
// A thread's body is ordinary sequential code calling Compute, SpinWait,
// Park and IO. It runs as a sim.Proc coroutine that parks whenever it
// waits on a kernel event and is resumed by that event; the scheduler
// preempts threads transparently, including in the middle of a Compute
// or a spin — which is exactly how preempted lock holders and preempted
// spinners arise.
package cpu

import "time"

// Config holds machine and scheduler timing parameters. The defaults
// approximate the Sun T5220 / Solaris 10 setup from the paper closely
// enough to reproduce every figure's shape.
type Config struct {
	// Contexts is the number of hardware contexts (the paper's machine
	// has 64).
	Contexts int

	// Tick is the scheduler clock tick period. Quanta are enforced and
	// park timeouts processed only at ticks (10ms on Solaris).
	Tick time.Duration

	// Quantum is the time slice length. A running thread whose slice
	// has expired is preempted at the next tick if other threads wait.
	Quantum time.Duration

	// SwitchCost is charged on a context for every dispatch of a
	// different thread (the paper: blocking adds 10-15µs to the
	// critical path via two context switches).
	SwitchCost time.Duration

	// ResumeCost is charged when a context re-dispatches the same
	// thread it last ran (warm switch).
	ResumeCost time.Duration

	// HandoffDelay is the time for a spinning waiter to observe a lock
	// release (1-2 cache miss latencies).
	HandoffDelay time.Duration

	// AccountingBaseCost and AccountingPerThread model the microstate
	// accounting read: Solaris traverses every thread in the process,
	// so cost grows linearly with thread count and the read serializes
	// scheduler operations (paper §5.3, §6.2.2).
	AccountingBaseCost      time.Duration
	AccountingPerThreadCost time.Duration

	// DispatchSerial is the serialized dispatcher cost per dispatch
	// operation (the OS run-queue lock): dispatches queue behind each
	// other machine-wide. This is what "saturates the OS scheduler"
	// when blocking primitives context-switch on every handoff
	// (Figure 4). Zero disables the effect (unit-test machines);
	// workload worlds enable it scaled to machine size.
	DispatchSerial time.Duration

	// DisableWakePreemption turns off wakeup preemption. By default
	// (false), quantum accounting is cumulative across voluntary
	// blocks, like Solaris TS ts_timeleft: a thread that keeps blocking
	// before its quantum expires eventually exhausts it anyway, and a
	// waking thread finding no idle context immediately preempts an
	// expired running thread. This is the mechanism that catches lock
	// holders mid-critical-section on loaded machines and produces the
	// paper's priority inversions; without it, frequently-blocking
	// workloads would never lose the CPU involuntarily.
	DisableWakePreemption bool
}

// DefaultConfig returns the Niagara-II-like parameters used throughout
// the reproduction.
func DefaultConfig() Config {
	return Config{
		Contexts:                64,
		Tick:                    10 * time.Millisecond,
		Quantum:                 10 * time.Millisecond,
		SwitchCost:              12 * time.Microsecond,
		ResumeCost:              3 * time.Microsecond,
		HandoffDelay:            250 * time.Nanosecond,
		AccountingBaseCost:      2 * time.Microsecond,
		AccountingPerThreadCost: 300 * time.Nanosecond,
	}
}

// withDefaults fills zero fields from DefaultConfig so tests can
// override only what they care about.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Contexts == 0 {
		c.Contexts = d.Contexts
	}
	if c.Tick == 0 {
		c.Tick = d.Tick
	}
	if c.Quantum == 0 {
		c.Quantum = d.Quantum
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = d.SwitchCost
	}
	if c.ResumeCost == 0 {
		c.ResumeCost = d.ResumeCost
	}
	if c.HandoffDelay == 0 {
		c.HandoffDelay = d.HandoffDelay
	}
	if c.AccountingBaseCost == 0 {
		c.AccountingBaseCost = d.AccountingBaseCost
	}
	if c.AccountingPerThreadCost == 0 {
		c.AccountingPerThreadCost = d.AccountingPerThreadCost
	}
	return c
}
