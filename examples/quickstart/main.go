// Quickstart: protect a shared counter with the real load-controlled
// mutex (internal/golc) under heavy goroutine oversubscription, and
// compare against a plain spinlock.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

func main() {
	procs := runtime.GOMAXPROCS(0)
	workers := 8 * procs // 800% "load": far more goroutines than procs
	fmt.Printf("quickstart: %d workers on %d procs\n", workers, procs)

	// 1. Load-controlled mutex: one process-wide runtime, any number
	// of locks registered with it.
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	lcOps := drive(golc.New("quickstart-lc", golc.WithRuntime(rt)), workers, time.Second)
	st := rt.Snapshot()
	rt.Stop()
	fmt.Printf("load-control: %10.0f acquires/s  (claims=%d, controller wakes=%d)\n",
		lcOps, st.Claims, st.ControllerWakes)

	// 2. The same workload on the same lock type under the Spin
	// policy: an uncontrolled spinlock.
	spinRT := lcrt.New(lcrt.Options{})
	spinRT.Start()
	spinOps := drive(golc.New("quickstart-spin", golc.WithPolicy(golc.Spin), golc.WithRuntime(spinRT)),
		workers, time.Second)
	spinRT.Stop()
	fmt.Printf("plain spin:   %10.0f acquires/s\n", spinOps)

	fmt.Println("\nthe point: under oversubscription the controller parks spinning")
	fmt.Println("waiters (they make no progress anyway) instead of letting them")
	fmt.Println("burn CPU, and wakes them the moment load drops.")
}

// drive hammers the lock from n goroutines for d and returns acquires/s.
func drive(mu sync.Locker, n int, d time.Duration) float64 {
	var ops atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				// A short critical section.
				end := time.Now().Add(500 * time.Nanosecond)
				for time.Now().Before(end) {
				}
				mu.Unlock()
				ops.Add(1)
			}
		}()
	}
	time.Sleep(d / 4) // warmup
	before := ops.Load()
	t0 := time.Now()
	time.Sleep(d)
	measured := ops.Load() - before
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	return float64(measured) / elapsed.Seconds()
}
