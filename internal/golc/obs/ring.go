package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// EventType classifies flight-recorder events.
type EventType uint8

const (
	// Lock/runtime events.
	EvPark           EventType = iota // a waiter claimed a sleep slot (Name: lock)
	EvWake                            // a park ended (Name: lock, Label: who woke it, Dur: time asleep)
	EvForcedClaim                     // an unconditional park claim — blocking policies (Name: lock)
	EvCtxCancel                       // a wait abandoned by context cancellation (Name: lock)
	EvPolicySwap                      // a lock's contention policy was hot-swapped (Name: lock, Label: new policy)
	EvControllerTick                  // one controller update (Arg: raw sleep target, Label: its inputs "runq=… os=… load=… sleeping=…")

	// OLTP transaction-lifecycle events (Arg: transaction id).
	EvTxnBlock       // a lock request queued behind a conflict (Name: resource)
	EvTxnAbort       // the lock manager killed a transaction (Label: why)
	EvDeadlockVictim // the detector picked this transaction out of a cycle
	EvEscalation     // record locks folded into a partition lock (Name: partition)

	// WAL durability events.
	EvWalAppend // a redo record was staged on the log tail (Name: log, Arg: bytes)
	EvWalSync   // one group commit fsync (Name: log, Arg: group size, Dur: sync latency)

	numEventTypes
)

var eventNames = [numEventTypes]string{
	EvPark:           "park",
	EvWake:           "wake",
	EvForcedClaim:    "forced-claim",
	EvCtxCancel:      "ctx-cancel",
	EvPolicySwap:     "policy-swap",
	EvControllerTick: "controller-tick",
	EvTxnBlock:       "txn-block",
	EvTxnAbort:       "txn-abort",
	EvDeadlockVictim: "deadlock-victim",
	EvEscalation:     "escalation",
	EvWalAppend:      "wal-append",
	EvWalSync:        "wal-sync",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one flight-recorder entry. TS is nanoseconds since the
// recorder started; for span events (Dur > 0) it marks the END of the
// interval, so TS-Dur is the start. Name usually identifies the lock
// or resource, Label the flavor (wake reason, abort reason, policy
// name), Arg a numeric payload (sleep target, transaction id).
type Event struct {
	TS    int64     `json:"ts"`
	Dur   int64     `json:"dur,omitempty"`
	Arg   int64     `json:"arg,omitempty"`
	Type  EventType `json:"type"`
	Shard uint8     `json:"shard"`
	Name  string    `json:"name,omitempty"`
	Label string    `json:"label,omitempty"`
}

// ringShard is one bounded event buffer. A plain mutex, not a lock-free
// scheme: events are emitted only on slow paths (a park, a policy swap,
// an abort), where one uncontended lock round-trip is noise — and it
// keeps concurrent dumps trivially race-free.
type ringShard struct {
	seq atomic.Uint64 // emit attempts, for sampling
	mu  sync.Mutex
	buf []Event
	pos int // next write index
	n   int // live entries (== len(buf) once wrapped)
}

// Ring is the flight recorder's storage: a fixed set of bounded event
// buffers, sharded so concurrent emitters rarely collide. Memory is
// bounded at shards*size events forever; new events overwrite the
// oldest within their shard.
type Ring struct {
	sampleEvery atomic.Uint64
	shards      []ringShard
}

// NewRing returns a ring of shards*size capacity (shards rounded up to
// a power of two, minimum 1; size minimum 1).
func NewRing(shards, size int) *Ring {
	n := 1
	for n < shards {
		n <<= 1
	}
	if size < 1 {
		size = 1
	}
	r := &Ring{shards: make([]ringShard, n)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, size)
	}
	r.sampleEvery.Store(DefaultEventSampling)
	return r
}

// Cap returns the ring's total capacity in events.
func (r *Ring) Cap() int { return len(r.shards) * len(r.shards[0].buf) }

func (r *Ring) setSampling(n int) {
	if n < 1 {
		n = 1
	}
	r.sampleEvery.Store(uint64(n))
}

// Sampling returns the active event sampling rate (1 = every event).
func (r *Ring) Sampling() int { return int(r.sampleEvery.Load()) }

// emit appends e to the calling goroutine's shard, applying the
// sampling knob. The shard hint reuses the histogram's stack-address
// trick so a goroutine's events stay in one shard (and become one
// Chrome-trace track).
func (r *Ring) emit(e Event) {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	idx := (p ^ (p >> 13)) & uintptr(len(r.shards)-1)
	sh := &r.shards[idx]
	if every := r.sampleEvery.Load(); every > 1 && sh.seq.Add(1)%every != 0 {
		return
	}
	e.Shard = uint8(idx)
	sh.mu.Lock()
	sh.buf[sh.pos] = e
	sh.pos++
	if sh.pos == len(sh.buf) {
		sh.pos = 0
	}
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
}

// Len returns the number of live events across all shards.
func (r *Ring) Len() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// Since copies out every live event with TS >= since (pass a negative
// since for everything), ordered by timestamp. Concurrent emitters are
// safe; the copy is consistent per shard.
func (r *Ring) Since(since int64) []Event {
	var out []Event
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		start := sh.pos - sh.n
		if start < 0 {
			start += len(sh.buf)
		}
		for k := 0; k < sh.n; k++ {
			e := sh.buf[(start+k)%len(sh.buf)]
			if e.TS >= since {
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
