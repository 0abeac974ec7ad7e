package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestRandomEventSoup schedules a randomized mix of events, dropped
// events, and nested re-schedules, then verifies global ordering
// invariants: the clock never goes backwards, every fired event fired at
// its scheduled time, and a dropped event, which its owner ignores when
// it fires, does nothing.
func TestRandomEventSoup(t *testing.T) {
	err := quick.Check(func(seed uint64, nOps uint8) bool {
		k := NewKernel(seed)
		r := NewRNG(seed + 1)
		type rec struct {
			want Time
			got  Time
		}
		var fired []rec
		dropped := map[uint64]bool{}
		var lastNow Time
		live := 0
		schedule := func(base Time) {
			d := Duration(r.Intn(1000))
			at := base + Time(d)
			seq := k.At(at, func() {
				if dropped[k.Firing()] {
					return
				}
				fired = append(fired, rec{want: at, got: k.Now()})
				if k.Now() < lastNow {
					t.Error("clock went backwards")
				}
				lastNow = k.Now()
				// Sometimes schedule more work from inside.
				if r.Intn(3) == 0 {
					dd := Duration(r.Intn(500))
					at2 := k.Now() + Time(dd)
					live++
					k.At(at2, func() {
						fired = append(fired, rec{want: at2, got: k.Now()})
					})
				}
			})
			if r.Intn(8) == 0 {
				dropped[seq] = true
			} else {
				live++
			}
		}
		for i := 0; i < int(nOps)+5; i++ {
			schedule(k.Now())
		}
		k.Drain()
		if len(fired) != live {
			return false
		}
		for _, f := range fired {
			if f.want != f.got {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyProcsRandomSleeps interleaves dozens of procs with random
// sleeps and parks, woken by timer events or directly by a peer; at the
// end no proc may be left running and all events must have drained.
func TestManyProcsRandomSleeps(t *testing.T) {
	k := NewKernel(99)
	const n = 64
	finished := 0
	var procs []*Proc
	var waiting []*Proc // parked until a peer unparks them
	wakeOne := func() {
		w := waiting[0]
		waiting = waiting[1:]
		w.Unpark()
	}
	for i := 0; i < n; i++ {
		r := k.Rand().Fork()
		p := k.Spawn("p", func(p *Proc) {
			for j := 0; j < 20; j++ {
				switch r.Intn(4) {
				case 0:
					sleep(k, p, Duration(r.Intn(int(time.Millisecond))))
				case 1:
					k.At(k.Now()+Time(r.Intn(int(time.Millisecond))+1), p.Unpark)
					p.Park()
				case 2:
					sleep(k, p, Duration(r.Intn(1000)))
				case 3:
					waiting = append(waiting, p)
					p.Park()
				}
				if len(waiting) > 0 && r.Intn(2) == 0 {
					wakeOne()
				}
			}
			finished++
		})
		procs = append(procs, p)
	}
	k.Drain()
	// Procs still waiting on a peer have no one left to wake them.
	for len(waiting) > 0 {
		wakeOne()
		k.Drain()
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
	for _, p := range procs {
		if !p.Done() {
			t.Fatal("proc not done after drain")
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("events leaked: %d", k.Pending())
	}
}

// TestEventStormThroughput guards against accidental quadratic behaviour
// in the event heap: 200k events must process quickly.
func TestEventStormThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("event storm")
	}
	k := NewKernel(7)
	r := NewRNG(8)
	const n = 200000
	for i := 0; i < n; i++ {
		k.At(Time(r.Intn(1<<30)), func() {})
	}
	start := time.Now()
	k.Drain()
	if k.Stepped != n {
		t.Fatalf("stepped %d, want %d", k.Stepped, n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("200k events took %v; heap degraded?", elapsed)
	}
}
