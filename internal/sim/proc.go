package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine (iter.Pull) that runs only
// while an event callback or another proc has resumed it, and hands
// control back when it parks or finishes. Procs let simulated threads be
// written as ordinary sequential code that calls a blocking Park instead
// of hand-written state machines. A panic in the body unwinds into
// whoever resumed it, and from there to the caller of Step, RunUntil or
// Drain.
type Proc struct {
	name   string
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	done   bool
	parked bool
}

// Spawn creates a process and schedules its body to start at the current
// virtual time (as a regular event).
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
		p.done = true
	})
	k.After(0, func() { p.next() })
	return p
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Parked reports whether the process is currently parked (off the
// virtual CPU from the kernel's perspective).
func (p *Proc) Parked() bool { return p.parked }

// Park gives control back to whoever resumed the process and blocks
// until Unpark. It must be called from the process's own body.
func (p *Proc) Park() {
	p.parked = true
	p.yield(struct{}{})
	p.parked = false
}

// Unpark resumes a parked process and returns once it parks again or
// finishes. It may be called from an event callback or from another
// process.
func (p *Proc) Unpark() {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %q", p.name))
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: resuming running proc %q", p.name))
	}
	p.next()
}
