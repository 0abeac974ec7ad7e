// Package waitseam holds failing fixtures for the waitseam analyzer:
// calls of a ContentionPolicy's Wait method from anywhere but golc.Wait.
package waitseam

import (
	"context"
	"sync/atomic"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// Wait has the seam's name and signature but is not golc.Wait. A
// shape-based match took it for a policy's Wait body and let the call
// inside through.
func Wait(ctx context.Context, h *lcrt.Handle, p golc.ContentionPolicy, a golc.Acquire) error {
	return p.Wait(ctx, h, a) // want `policy Wait called outside golc\.Wait`
}

// lock is a hand-rolled lock whose slow path runs its policy directly:
// the wait is never stamped, sampled or recorded.
type lock struct {
	state atomic.Int32
	pol   golc.ContentionPolicy
	h     *lcrt.Handle
}

func (l *lock) lockSlow(ctx context.Context) error {
	return l.pol.Wait(ctx, l.h, golc.Acquire{ // want `policy Wait called outside golc\.Wait`
		Try:  func() bool { return l.state.CompareAndSwap(0, 1) },
		Free: func() bool { return l.state.Load() == 0 },
	})
}

// nap is a policy; calling its Wait on the concrete type is no more
// seamed than calling it through the interface.
type nap struct{}

func (nap) Name() string { return "nap" }

func (nap) Wait(ctx context.Context, h *lcrt.Handle, a golc.Acquire) error {
	for !a.Try() {
	}
	return nil
}

func concrete(ctx context.Context, h *lcrt.Handle, a golc.Acquire) error {
	return nap{}.Wait(ctx, h, a) // want `policy Wait called outside golc\.Wait`
}
