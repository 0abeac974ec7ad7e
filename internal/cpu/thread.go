package cpu

import (
	"slices"
	"time"

	"repro/internal/sim"
)

// threadState is the OS-visible scheduling state of a thread.
type threadState int

const (
	stateNew threadState = iota
	stateRunnable
	stateRunning // on a context (switching in, executing, or spinning)
	stateBlocked // parked (lwp_park)
	stateIO      // waiting for an I/O completion
	stateDone
)

// WakeReason reports why a Park returned.
type WakeReason int

const (
	// WakeSignal means some thread called Unpark.
	WakeSignal WakeReason = iota
	// WakeTimeout means the park deadline expired (processed at a
	// scheduler tick).
	WakeTimeout
)

// SpinResult values are lock-defined; SpinPending means still waiting.
// The thread layer only distinguishes pending from decided.
const SpinPending = 0

// Thread is a simulated OS thread. All methods in the "thread API"
// section must be called from the thread's own body; methods in the
// "external API" section may be called from events or other threads.
type Thread struct {
	m       *Machine
	process *Process
	id      int
	name    string
	proc    *sim.Proc
	state   threadState
	rt      bool

	ctx        *Context
	executing  bool
	sliceStart sim.Time
	// timeleft is the remaining scheduling quantum, decremented by run
	// time and NOT reset by voluntary blocking (Solaris TS semantics);
	// it is replenished when the thread is involuntarily preempted
	// (priority recalculation).
	timeleft sim.Duration

	// compute bookkeeping; endSeq is the pending completion event's
	// sequence number, 0 when none is wanted.
	remaining sim.Duration
	segStart  sim.Time
	endSeq    uint64

	// spin bookkeeping
	spinning     bool
	spinResult   int
	spinPrioInv  bool
	spinSegStart sim.Time

	// park bookkeeping
	parkDeadline sim.Time
	wakeReason   WakeReason
	wakePending  bool

	// timestamps for wait accounting
	runnableSince sim.Time
	offCPUSince   sim.Time

	// Event callbacks, bound once so that scheduling them allocates
	// nothing.
	onComputeDone func()
	onIODone      func()
	onSpinWake    func()

	// watchers are told, in registration order, whenever the thread
	// starts or stops executing.
	watchers []Watcher

	acct Accounting
}

// ID returns a process-unique thread id (>= 1).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.process }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// OnCPU reports whether the thread currently occupies a hardware context
// and has completed switching in. This is what TP-MCS publishes.
func (t *Thread) OnCPU() bool { return t.executing }

// Running reports whether the thread occupies a context (even mid-switch).
func (t *Thread) Running() bool { return t.ctx != nil }

// Done reports whether the thread body has returned.
func (t *Thread) Done() bool { return t.state == stateDone }

// SetRealtime moves the thread to the real-time scheduling class (used
// by the load-control daemon). Must be called before the thread first
// runs or from the thread itself.
func (t *Thread) SetRealtime(rt bool) { t.rt = rt }

// Watcher is told when a thread starts executing on a context (on) and
// when it leaves one, voluntarily or not. Locks use it to publish their
// holder's on/off-CPU state.
type Watcher interface {
	Executing(t *Thread, on bool)
}

// Watch adds w to t's watchers. Watchers run inside the event loop.
func (t *Thread) Watch(w Watcher) { t.watchers = append(t.watchers, w) }

// Unwatch removes w from t's watchers; the others keep their order.
func (t *Thread) Unwatch(w Watcher) {
	if i := slices.Index(t.watchers, w); i >= 0 {
		t.watchers = slices.Delete(t.watchers, i, i+1)
	}
}

// executingChanged tells t's watchers that it started or stopped
// executing.
func (t *Thread) executingChanged(on bool) {
	for _, w := range t.watchers {
		w.Executing(t, on)
	}
}

// Acct returns the thread's accounting with in-progress segments flushed
// up to now.
func (t *Thread) Acct() Accounting { return t.flushView(t.m.K.Now()) }

// --- thread API (call only from the thread's own body) ---

// Compute consumes d of CPU time, transparently surviving preemption.
func (t *Thread) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	t.remaining = d
	for {
		t.awaitExecuting()
		if t.remaining <= 0 {
			break
		}
		t.segStart = t.m.K.Now()
		t.endSeq = t.m.K.After(t.remaining, t.onComputeDone)
		t.await()
	}
}

// computeDone ends the current compute segment. It ignores the event of
// a segment that was cut short: suspendActivity has charged that one.
func (t *Thread) computeDone() {
	if t.m.K.Firing() != t.endSeq {
		return
	}
	now := t.m.K.Now()
	t.acct.Work += dur(now - t.segStart)
	t.remaining = 0
	t.endSeq = 0
	t.resume()
}

// SpinWait busy-waits on the CPU until another party calls SpinWake with
// a non-pending result, which it returns. The spinning thread remains
// preemptible; if it is preempted and the result arrives while it is off
// CPU, SpinWait returns only after the thread is dispatched again —
// modelling lock handoffs to preempted waiters.
func (t *Thread) SpinWait() int {
	t.spinning = true
	t.spinResult = SpinPending
	t.spinSegStart = t.m.K.Now()
	for {
		t.awaitExecuting()
		if t.spinResult != SpinPending {
			break
		}
		t.spinSegStart = t.m.K.Now()
		t.await()
	}
	if t.executing {
		t.flushSpin(t.m.K.Now())
	}
	t.spinning = false
	return t.spinResult
}

// Spinning reports whether the thread is inside SpinWait without a
// decided result.
func (t *Thread) Spinning() bool { return t.spinning && t.spinResult == SpinPending }

// Park deschedules the thread (lwp_park). timeout <= 0 parks without a
// deadline. Timeouts are honoured only at scheduler ticks. A pending
// Unpark token (from an Unpark that raced ahead) makes Park return
// immediately.
func (t *Thread) Park(timeout time.Duration) WakeReason {
	if t.wakePending {
		t.wakePending = false
		return WakeSignal
	}
	now := t.m.K.Now()
	if timeout > 0 {
		t.parkDeadline = now + sim.Time(timeout)
		t.m.sched.timedParked[t] = struct{}{}
	} else {
		t.parkDeadline = 0
	}
	t.leaveCPU(stateBlocked)
	t.awaitExecuting()
	return t.wakeReason
}

// IO blocks the thread for exactly d (interrupt-driven completion, not
// tick-quantized), then waits to be scheduled again.
func (t *Thread) IO(d time.Duration) {
	t.leaveCPU(stateIO)
	t.m.K.After(d, t.onIODone)
	t.awaitExecuting()
}

// --- external API (events / other threads) ---

// Unpark wakes a parked thread (lwp_unpark). If the thread is not
// parked, a wake token is left so the next Park returns immediately.
func (t *Thread) Unpark() {
	if t.state == stateBlocked {
		t.wakeFromPark(WakeSignal)
		return
	}
	if t.state != stateDone {
		t.wakePending = true
	}
}

// SpinWake delivers a spin result. Returns false if the thread is not
// spinning or a result was already delivered. If the target is executing
// the wake is delivered at the current instant via a zero-delay event;
// callers wanting a cache-miss handoff delay schedule it themselves.
func (t *Thread) SpinWake(result int) bool {
	if result == SpinPending {
		panic("cpu: SpinWake with SpinPending")
	}
	if !t.spinning || t.spinResult != SpinPending {
		return false
	}
	t.spinResult = result
	if t.executing {
		t.m.K.After(0, t.onSpinWake)
	}
	return true
}

// spinWoken resumes a spinner whose result arrived while it executed,
// if it still spins on CPU.
func (t *Thread) spinWoken() {
	if t.spinning && t.executing && t.proc.Parked() {
		t.resume()
	}
}

// SetSpinPrioInv switches the accounting bucket charged while this
// thread spins: true while the lock holder it waits for is descheduled
// (priority inversion), false for true contention.
func (t *Thread) SetSpinPrioInv(inv bool) {
	if t.spinning && t.executing {
		t.flushSpin(t.m.K.Now())
	}
	t.spinPrioInv = inv
}

// --- internals ---

// await parks the thread's body until any of the thread's wake
// sources fires (dispatch completion, compute completion, spin wake).
func (t *Thread) await() { t.proc.Park() }

// awaitExecuting parks until the thread is executing on a context.
func (t *Thread) awaitExecuting() {
	for !t.executing {
		t.await()
	}
}

// resume hands control to the thread's body, which must be parked:
// Unpark panics, naming the thread, otherwise.
func (t *Thread) resume() { t.proc.Unpark() }

// becomeRunnable transitions from New/Blocked/IO to Runnable.
func (t *Thread) becomeRunnable() {
	now := t.m.K.Now()
	switch t.state {
	case stateBlocked:
		t.acct.Blocked += dur(now - t.offCPUSince)
	case stateIO:
		t.acct.IOWait += dur(now - t.offCPUSince)
	case stateNew:
	default:
		panic("cpu: becomeRunnable from invalid state")
	}
	delete(t.m.sched.timedParked, t)
	t.state = stateRunnable
	t.runnableSince = now
	t.process.bumpRunnable(1)
	t.m.sched.enqueue(t)
}

// wakeFromPark moves a Blocked thread to Runnable with the given reason.
func (t *Thread) wakeFromPark(r WakeReason) {
	if t.state != stateBlocked {
		panic("cpu: wakeFromPark on non-blocked thread")
	}
	t.wakeReason = r
	t.becomeRunnable()
}

// chargeQuantum deducts the elapsed slice from the cumulative quantum.
func (t *Thread) chargeQuantum(now sim.Time) {
	t.timeleft -= sim.Duration(now - t.sliceStart)
	if t.timeleft < -t.m.Cfg.Quantum {
		t.timeleft = -t.m.Cfg.Quantum
	}
}

// quantumExpired reports whether the thread has used up its cumulative
// quantum (making it a preemption victim).
func (t *Thread) quantumExpired(now sim.Time) bool {
	return t.timeleft-sim.Duration(now-t.sliceStart) <= 0
}

// leaveCPU is the voluntary exit path (Park, IO, termination).
func (t *Thread) leaveCPU(newState threadState) {
	if t.ctx == nil {
		panic("cpu: leaveCPU while not on a context")
	}
	now := t.m.K.Now()
	t.suspendActivity(now)
	t.chargeQuantum(now)
	c := t.ctx
	c.thread = nil
	t.ctx = nil
	t.executing = false
	t.state = newState
	t.offCPUSince = now
	t.process.bumpRunnable(-1)
	t.executingChanged(false)
	t.m.sched.free(c)
}

// suspendActivity flushes in-progress compute/spin segments when the
// thread stops executing for any reason.
func (t *Thread) suspendActivity(now sim.Time) {
	if t.endSeq != 0 {
		t.endSeq = 0
		done := dur(now - t.segStart)
		t.acct.Work += done
		t.remaining -= done
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	if t.spinning && t.executing {
		t.flushSpin(now)
	}
}

// flushSpin charges the elapsed spin segment to the current bucket.
func (t *Thread) flushSpin(now sim.Time) {
	d := dur(now - t.spinSegStart)
	if t.spinPrioInv {
		t.acct.SpinPrioInv += d
	} else {
		t.acct.SpinContention += d
	}
	t.spinSegStart = now
}

// terminate is called when the thread body returns.
func (t *Thread) terminate() {
	t.leaveCPU(stateDone)
}

// flushView returns accounting including the in-progress segment.
func (t *Thread) flushView(now sim.Time) Accounting {
	a := t.acct
	switch {
	case t.executing && t.endSeq != 0:
		a.Work += dur(now - t.segStart)
	case t.executing && t.spinning && t.spinResult == SpinPending:
		if t.spinPrioInv {
			a.SpinPrioInv += dur(now - t.spinSegStart)
		} else {
			a.SpinContention += dur(now - t.spinSegStart)
		}
	case t.state == stateRunnable:
		a.WaitRun += dur(now - t.runnableSince)
	case t.state == stateBlocked:
		a.Blocked += dur(now - t.offCPUSince)
	case t.state == stateIO:
		a.IOWait += dur(now - t.offCPUSince)
	}
	return a
}
