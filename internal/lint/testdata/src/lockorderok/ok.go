// Package lockorderok holds clean fixtures for the lockorder analyzer:
// a consistent two-class order used from several functions and a
// proper partition→record descent must produce no findings.
package lockorderok

import (
	"repro/internal/golc"
	"repro/internal/oltp"
)

type shard struct{ mu *golc.RWMutex }
type stripe struct{ mu *golc.RWMutex }

type store struct {
	sh shard
	st stripe
	n  int
}

func writePath(s *store) {
	s.sh.mu.Lock()
	s.st.mu.Lock()
	s.n++
	s.st.mu.Unlock()
	s.sh.mu.Unlock()
}

func deletePath(s *store) {
	s.sh.mu.Lock()
	s.st.mu.Lock() // same direction as writePath: no cycle
	s.n--
	s.st.mu.Unlock()
	s.sh.mu.Unlock()
}

func readPath(s *store) int {
	s.sh.mu.RLock()
	defer s.sh.mu.RUnlock()
	return s.n
}

type mgr struct{ n int }

func (m *mgr) acquire(id oltp.ResourceID, mode oltp.Mode) error {
	m.n++
	return nil
}

func descendsHierarchy(m *mgr) error {
	if err := m.acquire(oltp.PartitionID("t", 0), oltp.IX); err != nil {
		return err
	}
	return m.acquire(oltp.RecordID("t", 0, "k"), oltp.X)
}
