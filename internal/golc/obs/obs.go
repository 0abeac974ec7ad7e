// Package obs is the lock runtime's flight recorder: always-on,
// low-overhead observability for everything the load-control runtime
// does. It has three parts:
//
//   - Histogram: lock-free log-bucketed (power-of-two nanosecond)
//     latency histograms with padded per-shard atomics, merged only on
//     read. The runtime records acquisition wait time, hold time, and
//     park duration into them, per lock and globally.
//   - Ring: a bounded, sharded ring of typed events (park, wake,
//     forced claim, ctx-cancel, policy hot-swap, controller tick, and
//     the oltp transaction lifecycle) with nanosecond timestamps — the
//     flight recorder proper. Old events are overwritten, memory is
//     bounded, and a sampling knob sheds load under event storms.
//   - Exposition: a hand-rolled Prometheus text writer (PromWriter)
//     and a Chrome-tracing JSON writer (WriteChromeTrace) whose output
//     loads in Perfetto / chrome://tracing.
//
// The package deliberately imports nothing from golc or the runtime,
// so both can depend on it. A Recorder is owned by one runtime; all
// recording goes through it so a single SetEnabled(false) turns the
// entire instrumentation surface into a handful of dead branches.
package obs

import (
	"sync/atomic"
	"time"
)

// Sampling defaults. Holds are sampled because stamping every
// uncontended acquisition would put two clock reads on a ~10ns hot
// path; 1-in-256 keeps the distribution honest at a few hundredths of
// a nanosecond amortized. Events are not sampled — they happen on slow
// paths only (a park, an abort). Blame samples pay a runtime.Callers per hit, so
// they are sampled even though they only ever fire on the contended
// slow path; 1-in-64 keeps the capture cost far below the waits it
// measures.
const (
	DefaultHoldSampling  = 256
	DefaultEventSampling = 1
	DefaultBlameSampling = 64

	defaultRingShards = 8
	defaultRingSize   = 2048

	defaultHistShards = 8
)

// Recorder is one runtime's recording surface: the global histograms,
// the event ring, and the master enable switch. Per-lock histograms
// live on the locks' runtime handles but consult the same switch.
type Recorder struct {
	start time.Time

	enabled   atomic.Bool
	holdMask  atomic.Uint64 // a hold is sampled when seq&holdMask == 0
	blameMask atomic.Uint64 // a contended acquisition is blame-sampled when seq&blameMask == 0
	blameSeq  atomic.Uint64 // global blame sequence (contended acquisitions across all locks)

	// Wait is time from first failed acquire attempt to acquisition;
	// Hold is time from (sampled) acquisition to release; Park is time
	// actually spent asleep in the slot pool, one observation per park.
	Wait *Histogram
	Hold *Histogram
	Park *Histogram

	ring  *Ring
	blame *blameTable
}

// NewRecorder returns an enabled recorder with default sampling.
func NewRecorder() *Recorder {
	r := &Recorder{
		start: time.Now(),
		Wait:  NewHistogram(defaultHistShards),
		Hold:  NewHistogram(defaultHistShards),
		Park:  NewHistogram(defaultHistShards / 2),
		ring:  NewRing(defaultRingShards, defaultRingSize),
		blame: newBlameTable(),
	}
	r.holdMask.Store(DefaultHoldSampling - 1)
	r.blameMask.Store(DefaultBlameSampling - 1)
	r.enabled.Store(true)
	return r
}

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetEnabled flips the master switch. Disabled, every recording path
// degrades to one atomic load and a branch; existing data is kept.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Now returns nanoseconds since the recorder was created, on the
// monotonic clock. All Event timestamps and histogram stamps use it.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Ring returns the recorder's event ring (for dumps; emit through
// Event/Span so the enabled switch applies).
func (r *Recorder) Ring() *Ring { return r.ring }

// SetHoldSampling records one in every n lock holds (n is rounded up
// to a power of two; n <= 1 records every hold).
func (r *Recorder) SetHoldSampling(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	r.holdMask.Store(uint64(p - 1))
}

// HoldSampling returns the active hold sampling rate (1 = every hold).
func (r *Recorder) HoldSampling() int { return int(r.holdMask.Load()) + 1 }

// EventSampling returns the active event sampling rate (1 = every
// event).
func (r *Recorder) EventSampling() int { return r.ring.Sampling() }

// SetBlameSampling blame-samples one in every n contended acquisitions
// (n is rounded up to a power of two; n <= 1 samples every one).
func (r *Recorder) SetBlameSampling(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	r.blameMask.Store(uint64(p - 1))
}

// BlameSampling returns the active blame sampling rate (1 = every
// contended acquisition).
func (r *Recorder) BlameSampling() int { return int(r.blameMask.Load()) + 1 }

// HoldStamp returns a Now() stamp for a hold that should be sampled,
// or 0 to skip it. seq is the lock's own acquisition counter; the
// caller keeps the stamp and feeds the elapsed time to the Hold
// histograms at unlock. The common (unsampled) case is two atomic
// loads of read-mostly words.
func (r *Recorder) HoldStamp(seq uint64) int64 {
	if seq&r.holdMask.Load() != 0 || !r.enabled.Load() {
		return 0
	}
	return r.Now()
}

// Event records an instantaneous event, if the recorder is enabled.
// name is typically the lock (or resource) the event concerns.
func (r *Recorder) Event(t EventType, name, label string, arg int64) {
	if !r.enabled.Load() {
		return
	}
	r.ring.emit(Event{TS: r.Now(), Type: t, Name: name, Label: label, Arg: arg})
}

// Span records an event that covers the dur nanoseconds ending now —
// e.g. a park that just woke. Chrome-trace output renders spans as
// slices, instants as arrows.
func (r *Recorder) Span(t EventType, name, label string, arg, dur int64) {
	if !r.enabled.Load() {
		return
	}
	r.ring.emit(Event{TS: r.Now(), Dur: dur, Type: t, Name: name, Label: label, Arg: arg})
}
