package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

func TestKernelClockStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel clock = %d, want 0", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(30*time.Nanosecond, func() { order = append(order, 3) })
	k.After(10*time.Nanosecond, func() { order = append(order, 1) })
	k.After(20*time.Nanosecond, func() { order = append(order, 2) })
	k.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*time.Nanosecond, func() { order = append(order, i) })
	}
	k.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

// TestIgnoredEventIsNoOp: an owner drops an event it no longer wants by
// ignoring it when it fires. Its callback, bound once, acts only on the
// event whose number it holds.
func TestIgnoredEventIsNoOp(t *testing.T) {
	k := NewKernel(1)
	var want uint64
	var hits []Time
	fn := func() {
		if k.Firing() != want {
			return
		}
		hits = append(hits, k.Now())
	}
	k.At(10, fn)        // dropped before it fires
	want = k.At(30, fn) // the one the owner wants
	k.At(20, fn)        // scheduled after it: also ignored
	other := k.At(20, func() {
		if k.Firing() == 0 {
			t.Error("Firing = 0 inside an event")
		}
	})
	k.Drain()
	if len(hits) != 1 || hits[0] != 30 {
		t.Fatalf("hits = %v, want [30]", hits)
	}
	if k.Stepped != 4 || k.Pending() != 0 {
		t.Fatalf("stepped %d, pending %d; want 4, 0", k.Stepped, k.Pending())
	}
	if want == 0 || other == want {
		t.Fatalf("sequence numbers %d and %d: want distinct and nonzero", want, other)
	}
}

// TestPopOrderIsTimeSeqSort checks the heap against its reference: with
// many ties and events scheduled from inside events, the events fire in
// exactly the (time, seq) sort of everything scheduled, and each fires
// at its own time.
func TestPopOrderIsTimeSeqSort(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	for seed := uint64(1); seed <= 40; seed++ {
		k := NewKernel(seed)
		r := NewRNG(seed)
		var scheduled, fired []key
		var schedule func(base Time)
		schedule = func(base Time) {
			at := base + Time(r.Intn(8)) // few distinct times: many ties
			seq := k.At(at, func() {
				fired = append(fired, key{k.Now(), k.Firing()})
				if len(scheduled) < 2000 {
					for n := r.Intn(3); n > 0; n-- {
						schedule(k.Now())
					}
				}
			})
			scheduled = append(scheduled, key{at, seq})
		}
		for i := 0; i < 50; i++ {
			schedule(0)
		}
		k.Drain()
		slices.SortFunc(scheduled, func(a, b key) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if !slices.Equal(fired, scheduled) {
			t.Fatalf("seed %d: %d events fired out of (time, seq) order of %d scheduled",
				seed, len(fired), len(scheduled))
		}
	}
}

// TestAtStepAllocatesNothing: once the heap has grown, scheduling a
// bound callback and running it allocates nothing.
func TestAtStepAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.At(Time(1e12+i), fn) // stays queued under the steps below
	}
	r := NewRNG(2)
	allocs := testing.AllocsPerRun(10000, func() {
		k.After(Duration(r.Intn(1000)), fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step allocates %v per event, want 0", allocs)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(1000)
	if k.Now() != 1000 {
		t.Fatalf("clock = %d, want 1000", k.Now())
	}
}

func TestRunUntilDoesNotPassBoundary(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	k.At(50, func() { fired = append(fired, 50) })
	k.At(150, func() { fired = append(fired, 150) })
	k.RunUntil(100)
	if len(fired) != 1 || fired[0] != 50 {
		t.Fatalf("fired = %v, want [50]", fired)
	}
	if k.Now() != 100 {
		t.Fatalf("clock = %d, want 100", k.Now())
	}
	k.RunUntil(200)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both", fired)
	}
}

func TestEventAtBoundaryFires(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(100, func() { fired = true })
	k.RunUntil(100)
	if !fired {
		t.Fatal("event at exactly the RunUntil boundary did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(50, func() {})
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.After(10, func() {
		hits = append(hits, k.Now())
		k.After(10, func() { hits = append(hits, k.Now()) })
	})
	k.Drain()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 20 {
		t.Fatalf("hits = %v, want [10 20]", hits)
	}
}

func TestZeroDelayEventFiresAtSameTime(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.After(5, func() {
		k.After(0, func() { at = k.Now() })
	})
	k.Drain()
	if at != 5 {
		t.Fatalf("zero-delay event fired at %d, want 5", at)
	}
}

func TestSteppedCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 7; i++ {
		k.After(Duration(i), func() {})
	}
	k.Drain()
	if k.Stepped != 7 {
		t.Fatalf("Stepped = %d, want 7", k.Stepped)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		var vals []uint64
		for i := 0; i < 50; i++ {
			d := Duration(k.Rand().Intn(1000))
			k.After(d, func() { vals = append(vals, k.Rand().Uint64()) })
		}
		k.Drain()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}
