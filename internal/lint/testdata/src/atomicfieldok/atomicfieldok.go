// Package atomicfieldok holds clean fixtures for the atomicfield
// analyzer: typed atomics (atomic everywhere by construction) and
// fields never touched atomically — any finding here is a false
// positive.
package atomicfieldok

import "sync/atomic"

type gauge struct {
	val  atomic.Int64
	last atomic.Pointer[string]
	cfg  atomic.Value
	buf  int64 // plain everywhere
}

func set(g *gauge, s *string) {
	g.val.Store(1)
	g.last.Store(s)
	g.cfg.Store(s)
}

func get(g *gauge) int64 { return g.val.Add(1) + g.val.Load() }

func swap(g *gauge, old, new *string) bool { return g.last.CompareAndSwap(old, new) }

func drain(g *gauge) { g.buf++ }
