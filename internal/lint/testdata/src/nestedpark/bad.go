// Package nestedpark holds failing fixtures for the nestedpark
// analyzer: parking-capable operations reached while a golc lock is
// held.
package nestedpark

import (
	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

type pair struct {
	a *golc.Mutex
	b *golc.Mutex
	r *golc.RWMutex
}

func directNested(p *pair) {
	p.a.Lock()
	p.b.Lock() // want `may park while p\.a is held`
	p.b.Unlock()
	p.a.Unlock()
}

func readNested(p *pair) {
	p.a.Lock()
	p.r.RLock() // want `may park while p\.a is held`
	p.r.RUnlock()
	p.a.Unlock()
}

func writeNested(p *pair) {
	p.a.Lock()
	p.r.Lock() // want `may park while p\.a is held`
	p.r.Unlock()
	p.a.Unlock()
}

func viaHelper(p *pair) {
	p.a.Lock()
	helperThatParks(p.b) // want `may park .* while p\.a is held`
	p.a.Unlock()
}

func helperThatParks(mu *golc.Mutex) {
	mu.Lock()
	mu.Unlock()
}

func handleWaitWhileHolding(p *pair, h *lcrt.Handle, acq lcrt.Acquire) {
	p.a.Lock()
	h.Wait(acq) // want `Wait parks while p\.a is held`
	p.a.Unlock()
}

// A lock-manager-shaped acquire is an ordinary call: whatever its name
// and parameters, it parks if its body reaches a parking point.
type mgr struct{ latch golc.Mutex }

func (m *mgr) acquire(id oltp.ResourceID, mode oltp.Mode) {
	m.latch.Lock()
	m.latch.Unlock()
}

func acquireWhileHolding(outer *golc.Mutex, m *mgr) {
	outer.Lock()
	m.acquire(oltp.RecordID("t", 0, "k"), oltp.X) // want `call to mgr\.acquire may park \(Lock on m\.latch\) while outer is held`
	outer.Unlock()
}

// Log I/O under a latch is the convoy the WAL's group commit exists to
// prevent. The commit path parks on the log's tail latch or in its
// group-commit wait, so its facts make it a parking call.
func walCommitHeld(p *pair, log *wal.Log, batch []kv.Write) {
	p.a.Lock()
	log.Commit(batch) // want `call to wal\.Log\.Commit may park \(Append → Lock on l\.tail\) while p\.a is held`
	p.a.Unlock()
}

func walCloseHeld(p *pair, log *wal.Log) {
	p.a.Lock()
	log.Close() // want `call to wal\.Log\.Close may park \(Lock on l\.tail\) while p\.a is held`
	p.a.Unlock()
}
