// Package lockorder holds failing fixtures for the lockorder analyzer:
// an A→B / B→A class cycle, a same-class nested acquisition, and a
// logical acquisition that climbs the oltp hierarchy.
package lockorder

import (
	"repro/internal/golc"
	"repro/internal/oltp"
)

type alpha struct{ mu *golc.RWMutex }
type beta struct{ mu *golc.RWMutex }

func lockAlphaThenBeta(a *alpha, b *beta) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func lockBetaThenAlpha(a *alpha, b *beta) {
	b.mu.Lock()
	a.mu.Lock() // want `acquisition-order cycle`
	a.mu.Unlock()
	b.mu.Unlock()
}

func sameClassTwice(x, y *alpha) {
	x.mu.Lock()
	y.mu.Lock() // want `nested acquisition of lock class`
	y.mu.Unlock()
	x.mu.Unlock()
}

type mgr struct{ n int }

func (m *mgr) acquire(id oltp.ResourceID, mode oltp.Mode) error {
	m.n++
	return nil
}

func climbsHierarchy(m *mgr) error {
	if err := m.acquire(oltp.RecordID("t", 0, "k"), oltp.X); err != nil {
		return err
	}
	return m.acquire(oltp.PartitionID("t", 0), oltp.IX) // want `climbs the lock hierarchy`
}
