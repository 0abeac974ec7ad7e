// Package atomicfield holds failing fixtures for the atomicfield
// analyzer: plain words handed to sync/atomic's package-level
// functions, called directly or taken as a function value.
package atomicfield

import "sync/atomic"

type counter struct {
	n    uint64
	hits uint64 // never touched atomically; plain access is fine
}

func bump(c *counter) {
	atomic.AddUint64(&c.n, 1) // want `atomic\.AddUint64 on a plain word`
}

func read(c *counter) uint64 {
	return atomic.LoadUint64(&c.n) // want `atomic\.LoadUint64 on a plain word`
}

func reset(c *counter) {
	c.hits = 0
	store := atomic.StoreUint64 // want `atomic\.StoreUint64 on a plain word`
	store(&c.n, 0)
}
