package cpu

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Machine is a simulated multiprocessor running a time-sharing OS
// scheduler. Threads belong to Processes; the machine schedules all
// processes' threads on a single global run queue (no affinity), which
// is what makes inter-process interference (paper §5.5) observable.
type Machine struct {
	K      *sim.Kernel
	Cfg    Config
	ctxs   []*Context
	sched  *scheduler
	procs  []*Process
	nextID int

	// Switches counts thread dispatches where the incoming thread
	// differs from the context's previous occupant — the context-switch
	// rate metric of Figure 4.
	Switches uint64

	// Preemptions counts involuntary descheduling at quantum expiry.
	Preemptions uint64

	// observers are notified on every change of a process's runnable
	// count; experiment harnesses use this to build time series
	// (Figures 5, 6, 8).
	observers []func(p *Process, runnable int)
}

// NewMachine builds a machine with the given config (zero fields take
// defaults) on the kernel and starts the scheduler tick.
func NewMachine(k *sim.Kernel, cfg Config) *Machine {
	m := &Machine{K: k, Cfg: cfg.withDefaults()}
	m.sched = newScheduler(m)
	for i := 0; i < m.Cfg.Contexts; i++ {
		c := &Context{id: i}
		c.begin = func() { m.sched.execBegin(c) }
		m.ctxs = append(m.ctxs, c)
	}
	m.sched.startTicks()
	return m
}

// Now returns the current virtual time.
func (m *Machine) Now() sim.Time { return m.K.Now() }

// Contexts returns the number of hardware contexts.
func (m *Machine) Contexts() int { return m.Cfg.Contexts }

// NewProcess registers a process (an accounting domain).
func (m *Machine) NewProcess(name string) *Process {
	p := &Process{m: m, name: name, id: len(m.procs)}
	m.procs = append(m.procs, p)
	return p
}

// Observe registers fn to be called whenever a process's runnable-thread
// count changes. fn runs inside the event loop; it must not block.
func (m *Machine) Observe(fn func(p *Process, runnable int)) {
	m.observers = append(m.observers, fn)
}

// RunningThreads returns the number of threads currently occupying
// hardware contexts (running, switching or spinning).
func (m *Machine) RunningThreads() int {
	n := 0
	for _, c := range m.ctxs {
		if c.thread != nil {
			n++
		}
	}
	return n
}

// Utilization returns the fraction of context-time spent non-idle since
// machine start (includes switching and spinning).
func (m *Machine) Utilization() float64 {
	if m.K.Now() == 0 {
		return 0
	}
	var busy time.Duration
	for _, p := range m.procs {
		a := p.Acct()
		busy += a.Work + a.SpinContention + a.SpinPrioInv + a.Other
	}
	return float64(busy) / (float64(m.K.Now()) * float64(m.Cfg.Contexts))
}

// Process is a group of threads with shared microstate accounting. The
// load controller senses load for a single process (its own), which is
// what makes the two-process interference experiment meaningful.
type Process struct {
	m       *Machine
	name    string
	id      int
	threads []*Thread

	// runnable is the instantaneous count of threads that are on a
	// context or waiting for one (the OS notion of process load).
	runnable int

	// loadIntegral accumulates runnable·dt; two timestamped reads give
	// the average load over an interval (microstate accounting).
	loadIntegral float64
	lastChange   sim.Time

	acct Accounting
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Machine returns the owning machine.
func (p *Process) Machine() *Machine { return p.m }

// Runnable returns the instantaneous runnable-thread count (running +
// spinning + waiting for CPU).
func (p *Process) Runnable() int { return p.runnable }

// NewThread creates a thread whose body starts immediately. The body
// runs as a simulated process; it is dispatched by the scheduler like
// any OS thread.
func (p *Process) NewThread(name string, body func(t *Thread)) *Thread {
	m := p.m
	m.nextID++
	t := &Thread{
		m:        m,
		process:  p,
		id:       m.nextID,
		name:     fmt.Sprintf("%s/%s", p.name, name),
		state:    stateNew,
		timeleft: m.Cfg.Quantum,
	}
	t.onComputeDone = t.computeDone
	t.onIODone = t.becomeRunnable
	t.onSpinWake = t.spinWoken
	p.threads = append(p.threads, t)
	t.proc = m.K.Spawn(t.name, func(sp *sim.Proc) {
		// Become runnable and wait for the first dispatch before
		// running user code.
		t.becomeRunnable()
		t.awaitExecuting()
		body(t)
		t.terminate()
	})
	return t
}

// bumpRunnable adjusts the process load count, maintaining the
// time-weighted integral and notifying observers.
func (p *Process) bumpRunnable(delta int) {
	now := p.m.K.Now()
	p.loadIntegral += float64(p.runnable) * float64(now-p.lastChange)
	p.lastChange = now
	p.runnable += delta
	if p.runnable < 0 {
		panic("cpu: negative runnable count")
	}
	for _, fn := range p.m.observers {
		fn(p, p.runnable)
	}
}

// loadIntegralAt returns the runnable·dt integral up to now.
func (p *Process) loadIntegralAt() float64 {
	now := p.m.K.Now()
	return p.loadIntegral + float64(p.runnable)*float64(now-p.lastChange)
}

// Acct returns a snapshot of the process's aggregated thread accounting,
// flushing in-progress activity segments up to the current instant.
func (p *Process) Acct() Accounting {
	a := p.acct
	now := p.m.K.Now()
	for _, t := range p.threads {
		a.add(t.flushView(now))
	}
	return a
}
