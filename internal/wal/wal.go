// Package wal is the durability subsystem: a write-ahead log with
// group commit, checkpointing, and crash recovery, built so that the
// commit path's waits are managed by the same load-control machinery
// as every latch in the system.
//
// The seed simulator (internal/storage) modeled a log as arithmetic;
// this package is the real thing: CRC-framed redo records in segment
// files, one fsync per commit group, torn-tail truncation on restart.
// What makes it native to this repo rather than a generic WAL is where
// its waits live. A committer that has staged its record waits for
// durability through golc.Wait on a runtime Handle
// ("wal/group-commit") — the one wait seam golc locks use — so the
// spin/block/lc policies, hot-swap, wait histograms, and blame edges
// all apply to log waits like latch waits. Under load the durability
// wait population is the fsync convoy the paper's controller is built
// to manage: admitted waiters spin briefly and park on the slot pool,
// and the group-commit wake is the unlock-side wake.
//
// Concurrency layout: appenders stage encoded records into an
// in-memory tail buffer under a golc.Mutex ("wal/tail") — pure memory
// work, never I/O, so the latch stays a legitimate short critical
// section (our own heldcall analyzer enforces this). A single syncer
// goroutine swaps the staged buffer out under the latch and does all
// file writes, fsyncs, and segment rotation with no latch held. One
// swap is one commit group: one write, one fsync, one wake-all.
package wal

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
)

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if absent): segment files,
	// the checkpoint, and nothing else.
	Dir string

	// SegmentBytes is the rotation threshold: the syncer opens a new
	// segment after the group that pushes the active one past this.
	// Default 4 MiB.
	SegmentBytes int64

	// Runtime is the load-control runtime the log's latch and wait
	// seam register with. Default: the process-wide lcrt.Default().
	Runtime *lcrt.Runtime

	// Policy is the initial ContentionPolicy for both the tail latch
	// and the group-commit durability waits. Default: LoadControlled.
	Policy golc.ContentionPolicy

	// SyncHook, when non-nil, replaces the fsync on the active
	// segment. Tests inject failures here; benchmarks emulate slow
	// devices by sleeping and then syncing.
	SyncHook func(*os.File) error

	// WriteHook, when non-nil, replaces the write of a commit group
	// to the active segment. Tests inject write errors here.
	WriteHook func(*os.File, []byte) (int, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Runtime == nil {
		o.Runtime = lcrt.Default()
	}
	if o.Policy == nil {
		o.Policy = golc.LoadControlled
	}
	return o
}

// RecoveryStats describes what Open found and did.
type RecoveryStats struct {
	CheckpointLSN   uint64 `json:"checkpoint_lsn"`   // LSN of the checkpoint the store was seeded from (0: none)
	CheckpointKeys  int    `json:"checkpoint_keys"`  // entries loaded from it
	SegmentsScanned int    `json:"segments_scanned"` // segment files examined
	RecordsReplayed int    `json:"records_replayed"` // redo records applied (LSN > checkpoint)
	WritesReplayed  int    `json:"writes_replayed"`  // individual writes inside those records
	TornBytes       int64  `json:"torn_bytes"`       // bytes truncated off the first bad frame's segment
	DroppedSegments int    `json:"dropped_segments"` // later segments discarded after the torn point
	MaxLSN          uint64 `json:"max_lsn"`          // highest durable LSN at recovery
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends      uint64          `json:"appends"`       // records staged
	BytesStaged  uint64          `json:"bytes_staged"`  // encoded bytes staged
	Syncs        uint64          `json:"syncs"`         // commit groups fsynced
	BytesWritten uint64          `json:"bytes_written"` // bytes written to segments
	Rotations    uint64          `json:"rotations"`     // segment rotations
	Checkpoints  uint64          `json:"checkpoints"`   // checkpoints written
	Segments     int             `json:"segments"`      // live segment files
	NextLSN      uint64          `json:"next_lsn"`      // next LSN to be assigned
	DurableLSN   uint64          `json:"durable_lsn"`   // last LSN known synced
	AppliedLSN   uint64          `json:"applied_lsn"`   // applied floor (checkpoint cut)
	CkptLSN      uint64          `json:"ckpt_lsn"`      // current checkpoint's LSN
	Wedged       string          `json:"wedged,omitempty"`
	GroupSize    obs.HistSummary `json:"group_size"` // commits per fsync
	SyncLatency  obs.HistSummary `json:"sync_ns"`    // fsync latency
	Recovery     RecoveryStats   `json:"recovery"`
}

// ErrClosed is returned by appends against a closed log.
var ErrClosed = fmt.Errorf("wal: log closed")

// Log is an open write-ahead log. All methods are safe for concurrent
// use. Commit, WaitDurable, Sync, Checkpoint, and Close block on file
// I/O (directly or through the syncer) and must never be called with
// a golc lock held — the lint suite's heldcall analyzer knows these
// names and enforces exactly that.
type Log struct {
	opts  Options
	store *kv.Store
	dirf  *os.File // open handle on Dir, for directory fsyncs

	tail *golc.Mutex  // staging latch: buffer, LSN counter
	h    *lcrt.Handle // group-commit durability wait seam
	pol  atomic.Pointer[golc.ContentionPolicy]
	site obs.SiteID // "wal/fsync" blame site, published while syncing

	// Staged state, guarded by tail. spare is the syncer's return
	// lane for the swapped-out buffer, so steady state recycles two
	// buffers instead of allocating per group.
	buf    []byte
	spare  []byte
	staged int
	next   uint64 // next LSN to assign
	closed bool

	kick chan struct{} // cap 1: "staged bytes await the syncer"
	quit chan struct{} // Close → syncer: drain and exit
	done chan struct{} // syncer → Close: exited

	resolved atomic.Uint64 // notification watermark: waiters at/below unblock
	durable  atomic.Uint64 // last LSN actually fsynced (≤ resolved)
	wedged   atomic.Pointer[wedge]

	// Applied-floor tracking, guarded by pendMu: floor is the largest
	// LSN with every record at or below it applied to the store — the
	// only safe checkpoint cut while commits are in flight.
	pendMu  sync.Mutex
	pending map[uint64]bool
	floor   uint64

	// Syncer-owned, no lock: the active segment.
	seg       *os.File
	segStart  uint64
	segSize   int64
	nextWrite uint64 // first LSN of the next group to hit the file

	// Segment registry, guarded by segMu (the syncer appends on
	// rotation; Checkpoint garbage-collects).
	segMu    sync.Mutex
	segments []segment

	ckptMu  sync.Mutex // serializes Checkpoint
	ckptLSN atomic.Uint64

	appends      atomic.Uint64
	bytesStaged  atomic.Uint64
	syncs        atomic.Uint64
	bytesWritten atomic.Uint64
	rotations    atomic.Uint64
	checkpoints  atomic.Uint64
	groupHist    *obs.Histogram
	syncHist     *obs.Histogram
	recovery     RecoveryStats
}

type wedge struct{ err error }

type segment struct {
	path  string
	first uint64 // first LSN written to it
}

// Append encodes batch as one redo record, stages it on the log tail,
// and returns its LSN without waiting for durability. The record is
// on disk only once WaitDurable(lsn) returns nil. An empty batch
// stages nothing and returns LSN 0, which WaitDurable treats as
// already durable.
func (l *Log) Append(batch []kv.Write) (uint64, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	if w := l.wedged.Load(); w != nil {
		return 0, w.err
	}
	sz := recordSize(batch)
	l.tail.Lock()
	if l.closed {
		l.tail.Unlock()
		return 0, ErrClosed
	}
	lsn := l.next
	l.next++
	l.buf = appendRecord(l.buf, lsn, batch)
	l.staged++
	// Register the LSN with the floor tracker before the record can
	// possibly resolve — i.e. before the tail latch drops. A nested
	// plain mutex for tiny leaf state is the sanctioned pattern here.
	l.pendMu.Lock()
	l.pending[lsn] = false
	l.pendMu.Unlock()
	l.tail.Unlock()

	l.appends.Add(1)
	l.bytesStaged.Add(uint64(sz))
	if rec := l.h.Obs(); rec.Enabled() {
		rec.Event(obs.EvWalAppend, l.h.Name(), "", int64(sz))
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return lsn, nil
}

// Commit appends batch and waits until its commit group is durable:
// the group-commit protocol a transaction layer calls once per commit.
// A nil error means the record is fsynced; any error means it is not
// on disk and the caller must not apply the batch to the store.
func (l *Log) Commit(batch []kv.Write) (uint64, error) {
	lsn, err := l.Append(batch)
	if err != nil || lsn == 0 {
		return lsn, err
	}
	return lsn, l.WaitDurable(lsn)
}

// WaitDurable blocks until the record at lsn is fsynced (nil) or the
// log is wedged by an I/O error before reaching it (that error). The
// wait runs under the log's ContentionPolicy on the "wal/group-commit"
// handle: it is a first-class contended wait to the runtime — counted,
// histogrammed, blamed, and (under lc) admission-controlled.
//
// Durability waits are deliberately not cancellable: once a record is
// staged it WILL reach disk and be replayed after a crash, so a
// committer abandoning the wait could only let the live store diverge
// from the recovered one.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.resolved.Load() < lsn {
		l.waitSlow(lsn)
	}
	if l.durable.Load() >= lsn {
		return nil
	}
	if w := l.wedged.Load(); w != nil {
		return w.err
	}
	return fmt.Errorf("wal: lsn %d resolved but not durable and not wedged", lsn)
}

// waitSlow waits for lsn to resolve through golc.Wait, the same seam as
// every latch wait: bracketed, histogrammed and blame-sampled there.
func (l *Log) waitSlow(lsn uint64) {
	// "Acquisition" here is group notification, not mutual exclusion:
	// every waiter whose LSN the syncer has resolved passes Try at
	// once, and a woken waiter from a later group fails it and
	// re-parks.
	resolved := func() bool { return l.resolved.Load() >= lsn }
	pol := l.Policy()
	if _, err := golc.Wait(context.Background(), l.h, pol, golc.Acquire{Try: resolved, Free: resolved}); err != nil {
		// Background context: a non-nil error means the policy broke
		// Wait's contract. Returning would un-durably ack a commit.
		panic("wal: policy " + pol.Name() + " abandoned an uncancellable durability wait: " + err.Error())
	}
}

// NoteApplied records that the committed batch at lsn has been applied
// to the live store, advancing the applied floor Checkpoint cuts at.
// Callers apply strictly after WaitDurable succeeds, so the floor
// never passes the durable watermark. LSN 0 (empty commit) is a no-op.
func (l *Log) NoteApplied(lsn uint64) {
	if lsn == 0 {
		return
	}
	l.pendMu.Lock()
	l.pending[lsn] = true
	for l.pending[l.floor+1] {
		delete(l.pending, l.floor+1)
		l.floor++
	}
	l.pendMu.Unlock()
}

// AppliedFloor returns the largest LSN such that every record at or
// below it is applied to the store.
func (l *Log) AppliedFloor() uint64 {
	l.pendMu.Lock()
	defer l.pendMu.Unlock()
	return l.floor
}

// Sync forces everything staged so far to disk: it waits for the last
// assigned LSN to become durable. Used on clean shutdown and by tests.
func (l *Log) Sync() error {
	l.tail.Lock()
	last := l.next - 1
	l.tail.Unlock()
	if last == 0 {
		return nil
	}
	return l.WaitDurable(last)
}

// Policy returns the current durability-wait policy.
func (l *Log) Policy() golc.ContentionPolicy { return *l.pol.Load() }

// SetPolicy hot-swaps the contention policy for both the tail latch
// and the group-commit durability waits, mirroring golc.Mutex: waiters
// already inside the old policy's Wait drain under it.
func (l *Log) SetPolicy(p golc.ContentionPolicy) {
	l.pol.Store(&p)
	l.tail.SetPolicy(p)
	l.h.NotePolicy(p.Name())
	l.h.Obs().Event(obs.EvPolicySwap, l.h.Name(), p.Name(), 0)
}

// Wedged returns the sticky I/O error that disabled the log, or nil.
func (l *Log) Wedged() error {
	if w := l.wedged.Load(); w != nil {
		return w.err
	}
	return nil
}

// Stats returns a snapshot of the log's counters and histograms.
func (l *Log) Stats() Stats {
	l.segMu.Lock()
	segs := len(l.segments)
	l.segMu.Unlock()
	l.tail.Lock()
	next := l.next
	l.tail.Unlock()
	s := Stats{
		Appends:      l.appends.Load(),
		BytesStaged:  l.bytesStaged.Load(),
		Syncs:        l.syncs.Load(),
		BytesWritten: l.bytesWritten.Load(),
		Rotations:    l.rotations.Load(),
		Checkpoints:  l.checkpoints.Load(),
		Segments:     segs,
		NextLSN:      next,
		DurableLSN:   l.durable.Load(),
		AppliedLSN:   l.AppliedFloor(),
		CkptLSN:      l.ckptLSN.Load(),
		Recovery:     l.recovery,
	}
	gh, sh := l.groupHist.Snapshot(), l.syncHist.Snapshot()
	s.GroupSize = gh.Summary()
	s.SyncLatency = sh.Summary()
	if w := l.wedged.Load(); w != nil {
		s.Wedged = w.err.Error()
	}
	return s
}

// GroupSizeHist returns the commits-per-fsync histogram snapshot (the
// bucket unit is a count, not nanoseconds).
func (l *Log) GroupSizeHist() obs.HistSnapshot { return l.groupHist.Snapshot() }

// SyncHist returns the fsync-latency histogram snapshot (nanoseconds).
func (l *Log) SyncHist() obs.HistSnapshot { return l.syncHist.Snapshot() }

// Close drains staged records through one final sync, stops the
// syncer, and closes the segment. The log refuses appends from the
// moment Close begins; it does not checkpoint (call Checkpoint first
// for a fast next recovery).
func (l *Log) Close() error {
	l.tail.Lock()
	if l.closed {
		l.tail.Unlock()
		<-l.done
		return l.Wedged()
	}
	l.closed = true
	l.tail.Unlock()
	close(l.quit)
	<-l.done
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	l.dirf.Close()
	l.tail.Close() // retire the latch from runtime snapshots
	l.h.Close()
	return l.Wedged()
}

// syncer is the group-commit goroutine: the only code that touches
// segment files after Open. Each drain turns everything staged since
// the last look into one group — the batching is emergent, sized by
// how many commits arrived during the previous write+fsync.
func (l *Log) syncer() {
	defer close(l.done)
	for {
		select {
		case <-l.kick:
			l.drain()
		case <-l.quit:
			l.drain()
			return
		}
	}
}

// drain writes and fsyncs commit groups until the staging buffer is
// empty.
func (l *Log) drain() {
	for {
		buf, count, last := l.swapStaged()
		if count == 0 {
			return
		}
		l.writeGroup(buf, count, last)
		// Return the group's buffer for reuse.
		l.tail.Lock()
		l.spare = buf[:0]
		l.tail.Unlock()
	}
}

// swapStaged takes the staged buffer and its record count, leaving the
// spare in its place. last is the final LSN in the returned buffer.
func (l *Log) swapStaged() (buf []byte, count int, last uint64) {
	l.tail.Lock()
	buf, count, last = l.buf, l.staged, l.next-1
	if count != 0 {
		l.buf, l.spare = l.spare, nil
		l.staged = 0
	}
	l.tail.Unlock()
	return buf, count, last
}

// writeGroup commits one group: write, fsync, watermark advance, wake.
// On any I/O error the log wedges — the sticky error surfaces to this
// group's waiters and to every later append — but the resolved
// watermark still advances so no committer blocks forever.
func (l *Log) writeGroup(buf []byte, count int, last uint64) {
	prev := l.resolved.Load()
	rec := l.h.Obs()
	var err error
	var elapsed time.Duration
	if w := l.wedged.Load(); w != nil {
		// Already wedged: don't touch the file, just resolve the
		// group so its waiters unblock into the sticky error.
		err = w.err
	} else {
		// Publish the fsync site as the seam's "holder" while the
		// group commits: blame-sampled waiters pair their wait with
		// it, so the blame matrix shows commit latency pooling behind
		// wal/fsync.
		l.h.PublishHolderSite(l.site)
		start := time.Now()
		err = l.writeAndSync(buf)
		elapsed = time.Since(start)
		l.h.ClearHolderSite()
	}

	if err != nil {
		l.wedged.CompareAndSwap(nil, &wedge{err: fmt.Errorf("wal: log wedged: %w", err)})
		// The failed group's records will never be applied; resolve
		// them in the floor tracker so a later checkpoint of what DID
		// apply isn't wedged behind them.
		l.pendMu.Lock()
		for lsn := prev + 1; lsn <= last; lsn++ {
			l.pending[lsn] = true
		}
		for l.pending[l.floor+1] {
			delete(l.pending, l.floor+1)
			l.floor++
		}
		l.pendMu.Unlock()
	} else {
		l.durable.Store(last)
		l.nextWrite = last + 1
		l.syncs.Add(1)
		l.bytesWritten.Add(uint64(len(buf)))
		l.groupHist.Observe(int64(count))
		l.syncHist.Observe(elapsed.Nanoseconds())
		if rec.Enabled() {
			rec.Span(obs.EvWalSync, l.h.Name(), "", int64(count), elapsed.Nanoseconds())
		}
	}
	l.resolved.Store(last)
	// Wake every parked durability waiter. Waiters from in-flight
	// later groups re-check Try and re-park.
	l.h.WakeAll()
	if err == nil && l.segSize >= l.opts.SegmentBytes {
		if rerr := l.rotate(); rerr != nil {
			l.wedged.CompareAndSwap(nil, &wedge{err: fmt.Errorf("wal: log wedged: rotate: %w", rerr)})
		}
	}
}

// writeAndSync appends buf to the active segment and fsyncs it.
func (l *Log) writeAndSync(buf []byte) error {
	var n int
	var err error
	if l.opts.WriteHook != nil {
		n, err = l.opts.WriteHook(l.seg, buf)
	} else {
		n, err = l.seg.Write(buf)
	}
	l.segSize += int64(n)
	if err != nil {
		return fmt.Errorf("write %s: %w", l.seg.Name(), err)
	}
	if l.opts.SyncHook != nil {
		err = l.opts.SyncHook(l.seg)
	} else {
		err = l.seg.Sync()
	}
	if err != nil {
		return fmt.Errorf("fsync %s: %w", l.seg.Name(), err)
	}
	return nil
}
