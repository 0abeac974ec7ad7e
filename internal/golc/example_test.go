package golc_test

import (
	"fmt"
	"sync"

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
