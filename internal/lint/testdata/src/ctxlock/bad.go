// Package ctxlock holds failing fixtures for the ctxlock analyzer:
// Background/TODO contexts fed into cancellable seams from functions
// that have a real context in scope.
package ctxlock

import (
	"context"
	"net/http"
)

type fakeDB struct{}

func (d *fakeDB) Run(fn func() error) error                         { return fn() }
func (d *fakeDB) RunCtx(ctx context.Context, fn func() error) error { return fn() }

func handlerBackground(w http.ResponseWriter, r *http.Request, d *fakeDB) error {
	return d.RunCtx(context.Background(), func() error { return nil }) // want `context.Background\(\) passed to d\.RunCtx`
}

func todoUnderRealCtx(ctx context.Context, d *fakeDB) error {
	return d.RunCtx(context.TODO(), func() error { return nil }) // want `context.TODO\(\) passed to d\.RunCtx`
}

func handlerIgnoresVariant(r *http.Request, d *fakeDB) error {
	return d.Run(func() error { return nil }) // want `context-aware variant RunCtx`
}

type fakeTxn struct{ ctx context.Context }

func waiterFromBackground(t *fakeTxn) (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background()) // want `context.Background\(\) passed to context.WithCancel`
}

func literalInheritsScope(r *http.Request, d *fakeDB) func() error {
	return func() error {
		// The closure captures r from the handler above it.
		return d.RunCtx(context.Background(), func() error { return nil }) // want `context.Background\(\) passed to d\.RunCtx`
	}
}
