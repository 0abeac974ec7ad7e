// Package ctxlockok holds clean fixtures for the ctxlock analyzer:
// real contexts threaded through, and Background used only where no
// better context exists.
package ctxlockok

import (
	"context"
	"net/http"

	"repro/internal/golc"
)

type fakeDB struct{}

func (d *fakeDB) Run(fn func() error) error                         { return fn() }
func (d *fakeDB) RunCtx(ctx context.Context, fn func() error) error { return fn() }

func handlerThreadsCtx(w http.ResponseWriter, r *http.Request, d *fakeDB) error {
	return d.RunCtx(r.Context(), func() error { return nil })
}

func realCtxThreaded(ctx context.Context, d *fakeDB) error {
	return d.RunCtx(ctx, func() error { return nil })
}

// rootConstructor has no context in scope: Background is the only
// correct root here and must not be flagged.
func rootConstructor(d *fakeDB) (context.Context, context.CancelFunc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, cancel, d.RunCtx(ctx, func() error { return nil })
}

// physicalLockUnderRequest: a golc lock has no Ctx variant — physical
// waits are uncancellable by design — so Lock under a request context
// is not a finding.
func physicalLockUnderRequest(r *http.Request, mu *golc.Mutex) {
	mu.Lock()
	mu.Unlock()
}

// backgroundInPlainHelper: d.Run without any request/context in scope
// is fine.
func backgroundInPlainHelper(d *fakeDB) error {
	return d.Run(func() error { return nil })
}
