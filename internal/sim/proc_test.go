package sim

import (
	"testing"
	"time"
)

// sleep parks p until d of virtual time has passed.
func sleep(k *Kernel, p *Proc, d Duration) {
	k.After(d, p.Unpark)
	p.Park()
}

// mustPanic runs f and returns the value it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, f func()) (got any) {
	t.Helper()
	defer func() { got = recover() }()
	f()
	t.Fatal("no panic")
	return nil
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time = -1
	k.Spawn("sleeper", func(p *Proc) {
		sleep(k, p, 100*time.Nanosecond)
		woke = k.Now()
	})
	k.Drain()
	if woke != 100 {
		t.Fatalf("woke at %d, want 100", woke)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			sleep(k, p, 10)
			marks = append(marks, k.Now())
		}
	})
	k.Drain()
	for i, m := range marks {
		if m != Time((i+1)*10) {
			t.Fatalf("marks[%d] = %d, want %d", i, m, (i+1)*10)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		sleep(k, p, 10)
		order = append(order, "a10")
		sleep(k, p, 20) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		sleep(k, p, 20)
		order = append(order, "b20")
		sleep(k, p, 20) // wakes at 40
		order = append(order, "b40")
	})
	k.Drain()
	want := []string{"a10", "b20", "a30", "b40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkAndDeferredUnpark(t *testing.T) {
	k := NewKernel(1)
	var woke Time = -1
	p := k.Spawn("parker", func(p *Proc) {
		p.Park()
		woke = k.Now()
	})
	k.After(500, p.Unpark)
	k.Drain()
	if woke != 500 {
		t.Fatalf("woke at %d, want 500", woke)
	}
}

func TestProcDoneFlag(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("p", func(p *Proc) { sleep(k, p, 10) })
	if p.Done() {
		t.Fatal("done before running")
	}
	k.Drain()
	if !p.Done() {
		t.Fatal("not done after drain")
	}
}

func TestManyProcsNoLeak(t *testing.T) {
	k := NewKernel(1)
	const n = 200
	finished := 0
	var procs []*Proc
	for i := 0; i < n; i++ {
		d := Duration(i)
		procs = append(procs, k.Spawn("p", func(p *Proc) {
			sleep(k, p, d)
			finished++
		}))
	}
	k.Drain()
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
	for i, p := range procs {
		if !p.Done() {
			t.Fatalf("proc %d not done after drain", i)
		}
	}
}

func TestProcToProcUnpark(t *testing.T) {
	k := NewKernel(1)
	var order []string
	var a *Proc
	a = k.Spawn("a", func(p *Proc) {
		p.Park()
		order = append(order, "a-woke")
	})
	k.Spawn("b", func(p *Proc) {
		sleep(k, p, 100)
		order = append(order, "b-unparks")
		// Control passes to a and comes back when a finishes.
		a.Unpark()
		order = append(order, "b-resumed")
		sleep(k, p, 1)
		order = append(order, "b-after")
	})
	k.Drain()
	want := []string{"b-unparks", "a-woke", "b-resumed", "b-after"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestProcPanicReachesKernelCaller checks that a panic in a proc body
// unwinds into the goroutine that runs the kernel loop, where it can be
// recovered, whether the body started from its spawn event or was
// resumed by Unpark.
func TestProcPanicReachesKernelCaller(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("early", func(p *Proc) { panic("boom at start") })
	if got := mustPanic(t, k.Drain); got != "boom at start" {
		t.Fatalf("Drain panicked with %v", got)
	}

	k = NewKernel(1)
	k.Spawn("late", func(p *Proc) {
		sleep(k, p, 10)
		panic("boom after park")
	})
	if got := mustPanic(t, func() { k.RunUntil(100) }); got != "boom after park" {
		t.Fatalf("RunUntil panicked with %v", got)
	}
	if k.Now() != 10 {
		t.Fatalf("clock at %d after the panic, want 10", k.Now())
	}
}

// TestUnparkGuards checks that Unpark refuses a proc that is not parked,
// naming it.
func TestUnparkGuards(t *testing.T) {
	k := NewKernel(1)
	fin := k.Spawn("fin", func(p *Proc) {})
	k.Drain()
	if got := mustPanic(t, fin.Unpark); got != `sim: resuming finished proc "fin"` {
		t.Fatalf("unparking a finished proc panicked with %v", got)
	}

	var got any
	k.Spawn("self", func(p *Proc) {
		got = mustPanic(t, p.Unpark)
	})
	k.Drain()
	if got != `sim: resuming running proc "self"` {
		t.Fatalf("unparking a running proc panicked with %v", got)
	}
}
