// Package nestedpark holds failing fixtures for the nestedpark
// analyzer: parking-capable operations reached while a golc lock is
// held.
package nestedpark

import (
	"context"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
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

func ctxNested(ctx context.Context, p *pair) error {
	p.a.Lock()
	defer p.a.Unlock()
	if err := p.r.LockCtx(ctx); err != nil { // want `may park while p\.a is held`
		return err
	}
	p.r.Unlock()
	return nil
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

func policyWaitWhileHolding(p *pair, pol golc.ContentionPolicy, h *lcrt.Handle, acq golc.Acquire) error {
	p.a.Lock()
	defer p.a.Unlock()
	return pol.Wait(context.Background(), h, acq) // want `parks while p\.a is held`
}

func seamWhileHolding(p *pair, pol golc.ContentionPolicy, h *lcrt.Handle, acq golc.Acquire) error {
	p.a.Lock()
	defer p.a.Unlock()
	_, err := golc.Wait(context.Background(), h, pol, acq) // want `call to golc\.Wait may park .* while p\.a is held`
	return err
}
