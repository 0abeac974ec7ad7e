package golc

import (
	"sync/atomic"

	lcrt "repro/internal/golc/runtime"
)

// RWMutex is the reader/writer counterpart of Mutex: readers share the
// lock; a pending writer gates new readers (writer preference) so
// writers cannot starve under a steady read stream. Like Mutex, the
// whole wait side belongs to a swappable ContentionPolicy — both
// reader and writer waits run the policy's loop, so every waiter of
// every lock in the process is governed by the same runtime, whatever
// its policy. Both release paths (Unlock, and the RUnlock that drops
// the last read hold) offer the unlock-side wake.
//
// state encodes the lock: -1 while a writer holds it, otherwise the
// reader count. wwait counts writers waiting (it gates new readers).
// The embedded core's hold stamp and holder-site shadow cover WRITE
// holds only. Sampled READERS publish their site too — a writer stuck
// behind a read crowd blames the published reader — but without a
// shadow: read holds overlap, so the last reader out clears
// unconditionally through the load-guarded ClearHolderSite.
type RWMutex struct {
	noCopy noCopy

	state atomic.Int32
	wwait atomic.Int32
	core
}

// NewRW returns a reader/writer lock named for metrics, registered
// with the option's runtime (default: the process-wide runtime) and
// waiting according to the option's policy (default: LoadControlled).
func NewRW(name string, opts ...Option) *RWMutex {
	m := &RWMutex{}
	m.init(name, opts)
	return m
}

// rAvailable reports whether a reader could take the lock right now.
func (m *RWMutex) rAvailable() bool {
	return m.wwait.Load() == 0 && m.state.Load() >= 0
}

// tryR makes one reader acquire attempt.
func (m *RWMutex) tryR() bool {
	if m.wwait.Load() != 0 {
		return false
	}
	s := m.state.Load()
	return s >= 0 && m.state.CompareAndSwap(s, s+1)
}

// RLock acquires the lock for reading.
func (m *RWMutex) RLock() {
	if m.tryR() {
		return
	}
	m.rlockSlow()
}

// rlockSlow waits for a read hold. A blame-sampled reader blames
// whoever was published when its wait began — under writer preference
// that is the writer holding (or a sampled reader crowding out) the
// lock — and then publishes its own site, unshadowed (see RWMutex).
func (m *RWMutex) rlockSlow() {
	if site := m.h.Wait(lcrt.Acquire{Try: m.tryR, Free: m.rAvailable}); site != 0 {
		m.h.PublishHolderSite(site)
	}
}

// RUnlock releases one read hold. Validation happens before the
// decrement: a bad RUnlock must not corrupt state into the writer-held
// encoding (a recovered panic would leave the lock wedged). Dropping
// the last read hold wakes a parked waiter (usually a writer whose
// wwait claim was released while asleep) if no spinner remains.
func (m *RWMutex) RUnlock() {
	for {
		s := m.state.Load()
		if s <= 0 {
			panic("golc: RUnlock of RWMutex not held for reading")
		}
		if s == 1 {
			// Last reader out: retract any reader-published holder site
			// before releasing (after, it could wipe a new writer's
			// publication). Load-guarded, so the common no-site case is
			// one atomic load on the last-out path only.
			m.h.ClearHolderSite()
		}
		if m.state.CompareAndSwap(s, s-1) {
			if s == 1 {
				m.h.NoteUnlock()
			}
			return
		}
	}
}

// Lock acquires the lock for writing.
func (m *RWMutex) Lock() {
	m.wwait.Add(1)
	if m.state.CompareAndSwap(0, -1) {
		m.wwait.Add(-1)
		m.stampHold()
		return
	}
	m.lockSlow()
}

// lockSlow waits for the write hold, the gate already raised.
func (m *RWMutex) lockSlow() {
	site := m.h.Wait(lcrt.Acquire{
		Try: func() bool {
			if m.state.Load() == 0 && m.state.CompareAndSwap(0, -1) {
				m.wwait.Add(-1)
				return true
			}
			return false
		},
		Free: func() bool { return m.state.Load() == 0 },
		// The writer-preference claim is dropped only while actually
		// asleep: a sleeping writer that kept wwait raised would gate
		// every reader for up to the sleep timeout, while dropping it
		// on failed claims would leak readers past a waiting writer
		// every park check. Dropping wwait releases the reader gate,
		// so it needs the same wake hook as an unlock: a reader that
		// committed to parking because it saw our wwait (while the
		// last read hold's NoteUnlock was suppressed by a then-
		// spinning waiter) would otherwise sleep on a lock nobody will
		// release again. Reporting the gate released while no writer
		// holds the lock has Wait make that wake, never on our own claim.
		PrePark: func() bool {
			m.wwait.Add(-1)
			return m.state.Load() >= 0
		},
		PostPark: func() { m.wwait.Add(1) },
	})
	m.stampWaited(site)
}

// Unlock releases the write hold, waking a parked waiter if no spinner
// is left to take the lock. Sampled write holds are recorded after the
// release, as in Mutex.Unlock.
func (m *RWMutex) Unlock() {
	start := m.releasing()
	if !m.state.CompareAndSwap(-1, 0) {
		panic("golc: Unlock of RWMutex not held for writing")
	}
	if start != 0 {
		m.h.RecordHold(start)
	}
	m.h.NoteUnlock()
}
