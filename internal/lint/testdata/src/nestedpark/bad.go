// Package nestedpark holds failing fixtures for the nestedpark
// analyzer: parking-capable operations reached while a golc lock is
// held.
package nestedpark

import (
	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/oltp"
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
	defer p.a.Unlock()
	p.r.Lock() // want `may park while p\.a is held`
	p.r.Unlock()
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
	defer p.a.Unlock()
	h.Wait(acq) // want `Wait parks while p\.a is held`
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
