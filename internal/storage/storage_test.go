package storage

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/locks"
	"repro/internal/sim"
)

type world struct {
	k *sim.Kernel
	m *cpu.Machine
	p *cpu.Process
	e *Engine
}

func newWorld(seed uint64, contexts int, cfg Config) *world {
	k := sim.NewKernel(seed)
	m := cpu.NewMachine(k, cpu.Config{Contexts: contexts})
	p := m.NewProcess("db")
	env := locks.NewEnv(m)
	return &world{k: k, m: m, p: p, e: NewEngine(env, cfg)}
}

func TestCRUDBasics(t *testing.T) {
	w := newWorld(1, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{100})
	var got Row
	var found, inserted, deleted bool
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		r, ok, err := x.Read("acct", 1)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got, found = r, ok
		ok2, _ := x.Insert("acct", 2, Row{50})
		inserted = ok2
		ok3, _ := x.Delete("acct", 1)
		deleted = ok3
		x.Commit()
	})
	w.k.RunFor(time.Second)
	if !found || got[0] != 100 {
		t.Fatalf("read = %v/%v", got, found)
	}
	if !inserted || !deleted {
		t.Fatalf("insert=%v delete=%v", inserted, deleted)
	}
	if tb.Size() != 1 {
		t.Fatalf("size = %d, want 1", tb.Size())
	}
}

func TestUpdateAppliesFunction(t *testing.T) {
	w := newWorld(2, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(7, Row{10, 20})
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		ok, err := x.Update("acct", 7, func(r Row) Row {
			r[0] += 5
			r[1] *= 2
			return r
		})
		if !ok || err != nil {
			t.Errorf("update: ok=%v err=%v", ok, err)
		}
		x.Commit()
	})
	w.k.RunFor(time.Second)
	r, _ := tb.bucketFor(7).rows[7]
	if r[0] != 15 || r[1] != 40 {
		t.Fatalf("row = %v", r)
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	w := newWorld(3, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{100})
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Update("acct", 1, func(r Row) Row { r[0] = 999; return r })
		x.Insert("acct", 2, Row{1})
		x.Delete("acct", 1)
		x.Abort()
	})
	w.k.RunFor(time.Second)
	r, ok := tb.bucketFor(1).rows[1]
	if !ok || r[0] != 100 {
		t.Fatalf("row 1 not restored: %v/%v", r, ok)
	}
	if _, ok := tb.bucketFor(2).rows[2]; ok {
		t.Fatal("inserted row survived abort")
	}
	if w.e.Aborts != 1 {
		t.Fatalf("aborts = %d", w.e.Aborts)
	}
}

func TestExclusiveLockBlocksConflict(t *testing.T) {
	w := newWorld(4, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{0})
	var order []string
	w.p.NewThread("a", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Update("acct", 1, func(r Row) Row { r[0]++; return r })
		order = append(order, "a-locked")
		th.Compute(5 * time.Millisecond) // hold the lock a while
		x.Commit()
		order = append(order, "a-done")
	})
	w.p.NewThread("b", func(th *cpu.Thread) {
		th.Compute(time.Millisecond) // let a win the lock
		x := w.e.Begin(th)
		x.Update("acct", 1, func(r Row) Row { r[0] += 10; return r })
		order = append(order, "b-locked")
		x.Commit()
	})
	w.k.RunFor(time.Second)
	want := []string{"a-locked", "a-done", "b-locked"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r := tb.bucketFor(1).rows[1]; r[0] != 11 {
		t.Fatalf("final value = %d, want 11", r[0])
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	w := newWorld(5, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{42})
	inRead, maxInRead := 0, 0
	for i := 0; i < 3; i++ {
		w.p.NewThread(fmt.Sprintf("r%d", i), func(th *cpu.Thread) {
			x := w.e.Begin(th)
			x.Read("acct", 1)
			inRead++
			if inRead > maxInRead {
				maxInRead = inRead
			}
			th.Compute(2 * time.Millisecond)
			inRead--
			x.Commit()
		})
	}
	w.k.RunFor(time.Second)
	if maxInRead < 2 {
		t.Fatalf("shared locks did not coexist: max %d", maxInRead)
	}
}

func TestLockTimeoutAborts(t *testing.T) {
	w := newWorld(6, 4, Config{LockWaitTimeout: 20 * time.Millisecond})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{0})
	var gotTimeout bool
	w.p.NewThread("holder", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Update("acct", 1, func(r Row) Row { return r })
		th.Compute(200 * time.Millisecond) // hold X lock way past timeout
		x.Commit()
	})
	w.p.NewThread("waiter", func(th *cpu.Thread) {
		th.Compute(time.Millisecond)
		x := w.e.Begin(th)
		_, err := x.Update("acct", 1, func(r Row) Row { return r })
		if err == ErrLockTimeout {
			gotTimeout = true
			x.Abort()
			return
		}
		x.Commit()
	})
	w.k.RunFor(500 * time.Millisecond)
	if !gotTimeout {
		t.Fatal("waiter never timed out")
	}
	if w.e.LockTimeouts != 1 {
		t.Fatalf("LockTimeouts = %d", w.e.LockTimeouts)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	// The classic lost-update check: N threads × M increments on one
	// row must sum exactly, under heavy preemption (1 context).
	w := newWorld(7, 1, Config{})
	tb := w.e.CreateTable("ctr")
	tb.Load(1, Row{0})
	const n, m = 5, 20
	done := 0
	for i := 0; i < n; i++ {
		w.p.NewThread(fmt.Sprintf("w%d", i), func(th *cpu.Thread) {
			for j := 0; j < m; j++ {
				x := w.e.Begin(th)
				_, err := x.Update("ctr", 1, func(r Row) Row { r[0]++; return r })
				if err != nil {
					x.Abort()
					j-- // retry
					continue
				}
				x.Commit()
			}
			done++
		})
	}
	w.k.RunFor(5 * time.Second)
	if done != n {
		t.Fatalf("only %d/%d workers finished", done, n)
	}
	if got := tb.bucketFor(1).rows[1][0]; got != n*m {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, n*m)
	}
}

func TestCommitForcesLogOnlyForWriters(t *testing.T) {
	w := newWorld(8, 4, Config{CommitLatency: 3 * time.Millisecond})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{0})
	var readDone, writeDone sim.Time
	w.p.NewThread("reader", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Read("acct", 1)
		x.Commit()
		readDone = w.k.Now()
	})
	w.p.NewThread("writer", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Update("acct", 1, func(r Row) Row { r[0]++; return r })
		x.Commit()
		writeDone = w.k.Now()
	})
	w.k.RunFor(time.Second)
	if readDone >= sim.Time(3*time.Millisecond) {
		t.Fatalf("read-only commit waited for log force (%v)", time.Duration(readDone))
	}
	if writeDone < sim.Time(3*time.Millisecond) {
		t.Fatalf("writer commit skipped log force (%v)", time.Duration(writeDone))
	}
	if w.e.log.Forces != 1 {
		t.Fatalf("forces = %d, want 1", w.e.log.Forces)
	}
}

func TestReentrantLocking(t *testing.T) {
	w := newWorld(9, 4, Config{})
	tb := w.e.CreateTable("acct")
	tb.Load(1, Row{0})
	ok := false
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		if err := x.Lock("acct", 1, Shared); err != nil {
			t.Errorf("S lock: %v", err)
		}
		// Upgrade while alone must succeed without self-deadlock.
		if err := x.Lock("acct", 1, Exclusive); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		if err := x.Lock("acct", 1, Shared); err != nil {
			t.Errorf("re-lock: %v", err)
		}
		x.Commit()
		ok = true
	})
	w.k.RunFor(time.Second)
	if !ok {
		t.Fatal("transaction did not finish")
	}
}

func TestEngineUnderDifferentLatches(t *testing.T) {
	for _, f := range []struct {
		name string
		fac  locks.Factory
	}{
		{"tpmcs", locks.NewTPMCS},
		{"adaptive", locks.NewAdaptiveMutex},
		{"mcs", locks.NewMCS},
	} {
		t.Run(f.name, func(t *testing.T) {
			w := newWorld(10, 2, Config{Latch: f.fac})
			tb := w.e.CreateTable("ctr")
			tb.Load(1, Row{0})
			for i := 0; i < 4; i++ {
				w.p.NewThread(fmt.Sprintf("w%d", i), func(th *cpu.Thread) {
					for j := 0; j < 10; j++ {
						x := w.e.Begin(th)
						if _, err := x.Update("ctr", 1, func(r Row) Row { r[0]++; return r }); err != nil {
							x.Abort()
							j--
							continue
						}
						x.Commit()
					}
				})
			}
			w.k.RunFor(5 * time.Second)
			if got := tb.bucketFor(1).rows[1][0]; got != 40 {
				t.Fatalf("counter = %d, want 40 under %s", got, f.name)
			}
		})
	}
}

func TestDuplicateInsertFails(t *testing.T) {
	w := newWorld(11, 4, Config{})
	tb := w.e.CreateTable("t")
	tb.Load(5, Row{1})
	var ok bool
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		ok, _ = x.Insert("t", 5, Row{2})
		x.Commit()
	})
	w.k.RunFor(time.Second)
	if ok {
		t.Fatal("duplicate insert succeeded")
	}
	if tb.bucketFor(5).rows[5][0] != 1 {
		t.Fatal("original row clobbered")
	}
}

func TestFinishedTxnPanics(t *testing.T) {
	w := newWorld(12, 4, Config{})
	w.e.CreateTable("t")
	var recovered bool
	w.p.NewThread("t", func(th *cpu.Thread) {
		x := w.e.Begin(th)
		x.Commit()
		defer func() { recovered = recover() != nil }()
		x.Commit()
	})
	w.k.RunFor(time.Second)
	if !recovered {
		t.Fatal("double commit did not panic")
	}
}
