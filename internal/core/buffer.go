// Package core implements the paper's contribution: a load-control
// mechanism that decouples contention management from scheduling.
//
// The mechanism has two halves (paper §3.1):
//
//   - A controller daemon that wakes on a high-resolution timer (out of
//     phase with the OS tick), measures process load via microstate
//     accounting, and maintains a sleep target T — the number of threads
//     that should be blocked to keep runnable load at the hardware
//     context count.
//
//   - A sleep slot buffer through which the controller and spinning
//     threads communicate. Spinning threads (which by definition make no
//     forward progress) claim open slots and park; the controller clears
//     slots and unparks sleepers the moment load drops, rather than
//     waiting for timeouts.
//
// Lock integration is via the managed waits of locks.QueueLock (TP-MCS,
// or plain MCS in the §5.4 ablation): a spinner that claims a slot
// aborts its queue wait, parks for at most SleepTimeout (100ms,
// processed at scheduler ticks like any OS timeout), and restarts its
// acquire as if it had just arrived.
package core

import (
	"repro/internal/cpu"
)

// SlotBuffer is the sleep slot buffer (paper §3.2.2): a circular buffer
// over a large array with two counters — S, the number of threads that
// have ever slept (the head pointer), and W, the number that have woken
// and left — plus the controller's sleep target T. Threads decide to
// sleep by testing S-W < T; there is no tail pointer because sleepers
// leave in arbitrary order, leaving gaps the controller scans past.
//
// The simulation executes the operations sequentially, so the CAS
// loops of the real implementation always "succeed"; the algorithmic
// race windows (controller clears a slot before the claimant parks) are
// still modelled and tested explicitly.
type SlotBuffer struct {
	slots []*cpu.Thread
	// S counts threads that ever claimed a slot; W counts threads that
	// have woken and left. S-W is the current sleeper population
	// (including claimants that have not parked yet).
	S, W uint64
	// T is the controller's sleep target.
	T int

	// scan is the controller's last-known-end position for wake scans.
	scan uint64

	// Claims, ControllerWakes and TimeoutWakes count outcomes for
	// reports and tests.
	Claims          uint64
	ControllerWakes uint64
	TimeoutWakes    uint64
}

// NewSlotBuffer returns a buffer with capacity for cap simultaneous
// sleepers. The physical array must comfortably exceed any plausible
// sleep target; claims beyond it fail harmlessly.
func NewSlotBuffer(cap int) *SlotBuffer {
	if cap <= 0 {
		cap = 1024
	}
	return &SlotBuffer{slots: make([]*cpu.Thread, cap)}
}

// Sleeping returns S-W: the number of threads currently claimed into the
// buffer (parked or about to park).
func (b *SlotBuffer) Sleeping() int { return int(b.S - b.W) }

// Openings returns how many more threads should claim slots.
func (b *SlotBuffer) Openings() int {
	o := b.T - b.Sleeping()
	if o < 0 {
		return 0
	}
	return o
}

// TryClaim attempts to claim a slot for t (the spinner-side S-W < T test
// plus CAS). It returns the slot index and true on success.
func (b *SlotBuffer) TryClaim(t *cpu.Thread) (int, bool) {
	if b.Sleeping() >= b.T {
		return 0, false
	}
	idx := int(b.S % uint64(len(b.slots)))
	if b.slots[idx] != nil {
		// Physical wrap onto a still-occupied slot: buffer
		// effectively full.
		return 0, false
	}
	b.slots[idx] = t
	b.S++
	b.Claims++
	return idx, true
}

// SlotHolds reports whether slot idx still names t (the claimant's
// pre-park re-check: the controller may have cleared it already).
func (b *SlotBuffer) SlotHolds(idx int, t *cpu.Thread) bool {
	return b.slots[idx] == t
}

// Leave is called by a waking thread: it clears its own slot if the
// controller has not already done so, and retires (W++).
func (b *SlotBuffer) Leave(idx int, t *cpu.Thread) {
	if b.slots[idx] == t {
		b.slots[idx] = nil
		b.TimeoutWakes++
	} else {
		b.ControllerWakes++
	}
	b.W++
}

// WakeOne scans from the last-known-end for an occupied slot, clears it
// (the controller-side atomic clear) and returns the sleeper to unpark.
// Returns nil if no sleeper is present.
func (b *SlotBuffer) WakeOne() *cpu.Thread {
	n := uint64(len(b.slots))
	for i := uint64(0); i < n; i++ {
		idx := (b.scan + i) % n
		if t := b.slots[idx]; t != nil {
			b.slots[idx] = nil
			b.scan = (idx + 1) % n
			return t
		}
	}
	return nil
}
