package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/golc/obs"
)

// History is the runtime's retained time series: a bounded ring of
// periodic snapshots — per-lock interval wait quantiles, the blame
// leaderboard, policy and spinner/sleeper census — kept long enough
// (5 minutes, 300 records at the default 1s cadence) for a dashboard,
// the lctop viewer, or a future policy controller to see trends rather
// than instants. Each lock also carries a convoy flag: its interval
// wait p99 stayed over ConvoyP99 for ConvoyTicks consecutive ticks,
// the simplest robust "this lock is in trouble" signal the ROADMAP's
// self-driving contention management can key on.
//
// Quantiles are per-interval, not cumulative: each tick subtracts the
// previous tick's per-lock wait snapshot, so a lock that was hot an
// hour ago and idle now shows idle now. Memory is bounded at
// historyRetention/Interval records forever.
type History struct {
	rt   *Runtime
	opts HistoryOptions

	mu     sync.Mutex
	buf    []HistoryRecord
	pos    int // next write index
	n      int // live records
	prev   map[string]obs.HistSnapshot
	streak map[string]int

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// HistoryOptions configures a History.
type HistoryOptions struct {
	// Interval between snapshots (default 1s).
	Interval time.Duration
}

const (
	// ConvoyP99 is the interval wait-p99 threshold of the per-lock
	// convoy flag, and ConvoyTicks how many consecutive ticks over it
	// raise the flag.
	ConvoyP99   = 10 * time.Millisecond
	ConvoyTicks = 3

	// historyRetention bounds how far back records are kept: the ring
	// holds historyRetention/Interval of them. historyTopK is the blame
	// leaderboard size recorded per tick.
	historyRetention = 5 * time.Minute
	historyTopK      = 5
)

// LockTick is one lock's slice of a HistoryRecord. Waits and the
// quantiles cover only the record's interval (delta since the previous
// tick), so the series shows load as it moves.
type LockTick struct {
	Name     string `json:"name"`
	Policy   string `json:"policy,omitempty"`
	Spinning int64  `json:"spinning"`
	Sleeping int64  `json:"sleeping"`
	Waits    uint64 `json:"waits"`
	WaitP50  int64  `json:"wait_p50_ns"`
	WaitP99  int64  `json:"wait_p99_ns"`
	Convoy   bool   `json:"convoy,omitempty"`
}

// HistoryRecord is one snapshot tick: the runtime-wide census plus
// every registered lock's interval view and the cumulative blame
// leaderboard as of the tick. Load, RunQueue and OSExcess are the
// inputs of the last controller tick (see Snapshot): Target saturates
// at the pool while the load is positive, so they are what explains a
// park after the fact.
type HistoryRecord struct {
	TS       int64            `json:"ts_unix_ns"`
	Target   int              `json:"target"`
	Load     int              `json:"load"`
	RunQueue float64          `json:"run_queue"`
	OSExcess int              `json:"os_excess"`
	Spinners int              `json:"spinners"`
	Sleeping int              `json:"sleeping"`
	Locks    []LockTick       `json:"locks"`
	BlameTop []obs.BlameEntry `json:"blame_top,omitempty"`
}

// NewHistory builds a history for rt; call Start to begin ticking.
func NewHistory(rt *Runtime, opts HistoryOptions) *History {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	return &History{
		rt:     rt,
		opts:   opts,
		buf:    make([]HistoryRecord, max(historyRetention/opts.Interval, 1)),
		prev:   make(map[string]obs.HistSnapshot),
		streak: make(map[string]int),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Options returns the history's effective (defaulted) options.
func (h *History) Options() HistoryOptions { return h.opts }

// Start launches the snapshot goroutine. Starting twice is a no-op.
func (h *History) Start() {
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(h.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.tick(time.Now().UnixNano())
			}
		}
	}()
}

// Stop terminates the snapshot goroutine; records remain readable.
// Safe to call more than once, and safe on a never-Started history.
func (h *History) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	if h.started.Load() {
		<-h.done
	}
}

// histDelta returns cur - prev, the interval's own observations.
func histDelta(cur, prev obs.HistSnapshot) obs.HistSnapshot {
	d := cur
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	d.Count -= prev.Count
	d.Sum -= prev.Sum
	return d
}

// tick takes one snapshot and appends it to the ring. Split out from
// the goroutine loop (and given its timestamp) so tests drive it
// deterministically.
func (h *History) tick(now int64) {
	snap := h.rt.Snapshot()
	rec := HistoryRecord{
		TS:       now,
		Target:   snap.Target,
		Load:     snap.Load,
		RunQueue: snap.RunQueue,
		OSExcess: snap.OSExcess,
		Spinners: snap.Spinners,
		Sleeping: snap.Sleeping,
		BlameTop: h.rt.rec.BlameTop(historyTopK),
	}

	h.mu.Lock()
	defer h.mu.Unlock()

	// Snapshot() allows duplicate names (names need not be unique);
	// fold them so the per-name delta bookkeeping stays coherent.
	merged := make(map[string]*LockTick, len(snap.Locks))
	waits := make(map[string]obs.HistSnapshot, len(snap.Locks))
	for _, ls := range snap.Locks {
		lt, ok := merged[ls.Name]
		if !ok {
			lt = &LockTick{Name: ls.Name, Policy: ls.Policy}
			merged[ls.Name] = lt
		}
		lt.Spinning += ls.SpinningNow
		lt.Sleeping += ls.SleepingNow
		w := waits[ls.Name]
		w.Merge(ls.Wait)
		waits[ls.Name] = w
	}

	seen := make(map[string]struct{}, len(merged))
	rec.Locks = make([]LockTick, 0, len(merged))
	for name, lt := range merged {
		seen[name] = struct{}{}
		d := histDelta(waits[name], h.prev[name])
		h.prev[name] = waits[name]
		lt.Waits = d.Count
		lt.WaitP50 = d.Quantile(0.50)
		lt.WaitP99 = d.Quantile(0.99)
		if lt.WaitP99 > int64(ConvoyP99) {
			h.streak[name]++
		} else {
			h.streak[name] = 0
		}
		lt.Convoy = h.streak[name] >= ConvoyTicks
		rec.Locks = append(rec.Locks, *lt)
	}
	// Locks that disappeared (Closed, collected) must not pin delta or
	// streak state forever.
	for name := range h.prev {
		if _, ok := seen[name]; !ok {
			delete(h.prev, name)
			delete(h.streak, name)
		}
	}
	sortLockTicks(rec.Locks)

	h.buf[h.pos] = rec
	h.pos++
	if h.pos == len(h.buf) {
		h.pos = 0
	}
	if h.n < len(h.buf) {
		h.n++
	}
}

func sortLockTicks(ts []LockTick) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Name < ts[j-1].Name; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Records returns every retained record, oldest first.
func (h *History) Records() []HistoryRecord { return h.Since(0) }

// Since returns the retained records with TS >= since, oldest first.
func (h *History) Since(since int64) []HistoryRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryRecord, 0, h.n)
	start := h.pos - h.n
	if start < 0 {
		start += len(h.buf)
	}
	for k := 0; k < h.n; k++ {
		r := h.buf[(start+k)%len(h.buf)]
		if r.TS >= since {
			out = append(out, r)
		}
	}
	return out
}
