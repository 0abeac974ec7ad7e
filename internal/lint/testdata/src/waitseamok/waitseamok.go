// Package waitseamok holds clean fixtures for the waitseam analyzer: a
// caller of golc.Wait, a policy whose Wait delegates to another
// policy's — inside the seam, not a caller of it — and a type that
// only has Wait's shape. Any finding here is a false positive.
package waitseamok

import (
	"context"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// seamed is the lockSlow shape: the wait goes through golc.Wait.
func seamed(ctx context.Context, p golc.ContentionPolicy, h *lcrt.Handle, acq golc.Acquire) error {
	_, err := golc.Wait(ctx, h, p, acq)
	return err
}

// wrap is a delegating policy: its Wait body runs under whoever called
// wrap.Wait — golc.Wait — so the inner call is already seamed.
type wrap struct {
	inner golc.ContentionPolicy
}

func (w wrap) Name() string { return "wrap" }

func (w wrap) Wait(ctx context.Context, h *lcrt.Handle, acq golc.Acquire) error {
	return w.inner.Wait(ctx, h, acq)
}

// poller has a method of Wait's exact shape but no Name: it is not a
// ContentionPolicy, no lock can run it, and calling it is nobody's
// business here.
type poller struct{}

func (poller) Wait(ctx context.Context, h *lcrt.Handle, acq golc.Acquire) error {
	for !acq.Try() {
	}
	return nil
}

func poll(ctx context.Context, h *lcrt.Handle, acq golc.Acquire) error {
	return poller{}.Wait(ctx, h, acq)
}
