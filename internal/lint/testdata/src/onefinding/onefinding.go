// Package onefinding holds one bug per line for the whole suite run
// together (TestOneFindingPerBug): each marked line draws exactly one
// finding from exactly one analyzer. The WAL's commit path parks — on
// the log's tail latch, or in its group-commit wait — so it is
// nestedpark's finding through facts, and heldcall, which leaves
// parking callees to nestedpark, does not report it again.
package onefinding

import (
	"os"

	"repro/internal/golc"
	"repro/internal/kv"
	"repro/internal/wal"
)

type S struct {
	mu    *golc.Mutex
	inner *golc.Mutex
	log   *wal.Log
	f     *os.File
}

func logUnderLatch(s *S, batch []kv.Write) {
	s.mu.Lock()
	s.log.Append(batch)      // want `call to wal\.Log\.Append may park \(Lock on l\.tail\) while s\.mu is held`
	s.log.Commit(batch)      // want `call to wal\.Log\.Commit may park \(Append → Lock on l\.tail\) while s\.mu is held`
	s.log.WaitDurable(1)     // want `call to wal\.Log\.WaitDurable may park \(waitSlow → runtime park \(Wait\)\) while s\.mu is held`
	s.log.Stats()            // want `call to wal\.Log\.Stats may park \(Lock on l\.tail\) while s\.mu is held`
	s.log.Checkpoint()       // want `call to wal\.Log\.Checkpoint may park \(.*RLock on sh\.mu\) while s\.mu is held`
	s.log.Close()            // want `call to wal\.Log\.Close may park \(Lock on l\.tail\) while s\.mu is held`
	s.f.Write([]byte("rec")) // want `blocking call to \(os\.File\)\.Write while s\.mu is held`
	s.inner.Lock()           // want `Lock may park while s\.mu is held`
	s.inner.Unlock()
	s.mu.Unlock()
}
