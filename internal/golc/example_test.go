package golc_test

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// ExampleMutex shows the intended usage: one load-control runtime per
// process, any number of load-controlled locks registered with it.
func ExampleMutex() {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()

	mu := golc.New("mutex", golc.WithRuntime(rt))
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println(counter)
	// Output: 1600
}

// politePolicy is a complete user-defined ContentionPolicy: waiters
// poll the lock and nap a fixed 100µs between attempts, honoring
// cancellation. Wait's whole contract is: keep the spinner census
// honest, return nil once a.Try succeeds, return ctx.Err() if the
// context is done first.
type politePolicy struct{}

func (politePolicy) Name() string { return "polite" }

func (politePolicy) Wait(ctx context.Context, h *lcrt.Handle, a golc.Acquire) error {
	h.Spinning(1)
	defer h.Spinning(-1)
	for {
		if a.Try() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// Example_customPolicy runs an ordinary Mutex under a user-defined
// contention policy, handed over by value: same lock type, swapped
// wait strategy — the point of the ContentionPolicy redesign.
func Example_customPolicy() {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	mu := golc.New("custom-demo", golc.WithPolicy(politePolicy{}), golc.WithRuntime(rt))

	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println(counter, mu.Policy().Name())
	// Output: 800 polite
}

// ExampleMutex_LockCtx shows context-aware acquisition: a waiter
// blocked on a held lock leaves cleanly when its context is cancelled.
func ExampleMutex_LockCtx() {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()

	mu := golc.New("ctx-demo", golc.WithRuntime(rt))
	mu.Lock() // held: the waiter below cannot acquire

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := mu.LockCtx(ctx)
	fmt.Println(err)
	mu.Unlock()
	// Output: context deadline exceeded
}

// ExampleRuntime_Snapshot shows reading runtime and per-lock activity.
func ExampleRuntime_Snapshot() {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	mu := golc.New("demo", golc.WithRuntime(rt))
	mu.Lock()
	mu.Unlock()
	rt.Stop()
	s := rt.Snapshot()
	fmt.Println(s.Sleeping, s.Target, s.LocksRegistered, s.Locks[0].Name)
	// Output: 0 0 1 demo
}
