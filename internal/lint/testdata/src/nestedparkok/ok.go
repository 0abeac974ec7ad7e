// Package nestedparkok holds clean fixtures for the nestedpark
// analyzer: nested acquisition done the sanctioned ways (TryLock, or
// simply not overlapping) must produce no findings.
package nestedparkok

import "repro/internal/golc"

type pair struct {
	a *golc.Mutex
	b *golc.Mutex
	n int
}

func tryWhileHolding(p *pair) {
	p.a.Lock()
	if p.b.TryLock() {
		p.n++
		p.b.Unlock()
	}
	p.a.Unlock()
}

func sequentialNotNested(p *pair) {
	p.a.Lock()
	p.n++
	p.a.Unlock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
}

func parkAfterRelease(p *pair) {
	if p.b.TryLock() {
		p.b.Unlock()
	}
	p.b.Lock() // held set is empty here: fine
	p.n++
	p.b.Unlock()
}

func goroutineHasOwnHeldSet(p *pair) {
	p.a.Lock()
	go func() {
		// Runs on its own goroutine: it does not hold p.a.
		p.b.Lock()
		p.b.Unlock()
	}()
	p.a.Unlock()
}

func callNonParkingHelper(p *pair) {
	p.a.Lock()
	tryHelper(p)
	p.a.Unlock()
}

func tryHelper(p *pair) {
	if p.b.TryLock() {
		p.n++
		p.b.Unlock()
	}
}
