package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/golc"
	"repro/internal/golc/obs"
	"repro/internal/kv"
)

const (
	ckptName    = "checkpoint"
	ckptTmpName = "checkpoint.tmp"
	segPrefix   = "wal-"
	segSuffix   = ".seg"
)

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// replayChunk caps how many writes recovery hands ApplyBatch at once
// while seeding the store from a checkpoint image.
const replayChunk = 512

// Open opens (creating if necessary) the log in opts.Dir, recovers it
// into store — load the newest checkpoint, replay every later redo
// record via ApplyBatch, truncate the torn tail — and returns the log
// ready for appends, with a fresh active segment.
//
// The store must be empty: recovery rebuilds it as checkpoint image
// plus redo replay, and pre-existing keys would make the result
// neither. Recovery itself writes nothing to the log (truncating a
// torn tail is idempotent), so an Open interrupted by another crash
// redoes the same work and reaches the same state.
func Open(opts Options, store *kv.Store) (*Log, RecoveryStats, error) {
	opts = opts.withDefaults()
	var rs RecoveryStats
	if store == nil {
		return nil, rs, fmt.Errorf("wal: Open requires a store")
	}
	if store.Len() != 0 {
		return nil, rs, fmt.Errorf("wal: Open requires an empty store (recovery rebuilds it); store has %d keys", store.Len())
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	dirf, err := os.Open(opts.Dir)
	if err != nil {
		return nil, rs, fmt.Errorf("wal: %w", err)
	}

	l := &Log{
		opts:      opts,
		store:     store,
		dirf:      dirf,
		pending:   make(map[uint64]bool),
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		groupHist: obs.NewHistogram(1),
		syncHist:  obs.NewHistogram(1),
	}

	// Phase 1: seed the store from the checkpoint, if one exists. The
	// checkpoint is written tmp-then-rename, so a torn write leaves
	// the previous (or no) checkpoint in place; a checkpoint that
	// exists but fails its CRC is real corruption, and silently
	// replaying without it would resurrect a pre-checkpoint state
	// whose segments may already be garbage-collected. Refuse.
	ckptLSN := uint64(0)
	if img, err := os.ReadFile(filepath.Join(opts.Dir, ckptName)); err == nil {
		lsn, entries, err := decodeCheckpoint(img)
		if err != nil {
			dirf.Close()
			return nil, rs, fmt.Errorf("wal: checkpoint corrupt: %w", err)
		}
		ckptLSN = lsn
		rs.CheckpointLSN = lsn
		rs.CheckpointKeys = len(entries)
		batch := make([]kv.Write, 0, replayChunk)
		for _, e := range entries {
			batch = append(batch, kv.Write{Key: e.Key, Value: e.Value})
			if len(batch) == replayChunk {
				store.ApplyBatch(batch)
				batch = batch[:0]
			}
		}
		store.ApplyBatch(batch)
	} else if !os.IsNotExist(err) {
		dirf.Close()
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	os.Remove(filepath.Join(opts.Dir, ckptTmpName)) // a torn tmp is dead weight

	// Phase 2: scan segments in LSN order, replaying records past the
	// checkpoint. The log ends at the first frame that fails to
	// verify: that segment is truncated at the bad frame and every
	// later segment is dropped — records past a tear were never
	// acknowledged (their group's fsync can't have completed before
	// a tear earlier in write order).
	names, err := dirf.Readdirnames(-1)
	if err != nil {
		dirf.Close()
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segment{path: filepath.Join(opts.Dir, name), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	maxLSN := ckptLSN
	prevLSN := uint64(0) // last LSN seen in the scan, 0 until the first record
	broken := -1         // index of the segment with the first bad frame
	for i, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			dirf.Close()
			return nil, rs, fmt.Errorf("wal: %w", err)
		}
		rs.SegmentsScanned++
		off := int64(0)
		rest := data
		for {
			payload, more, ok, ferr := nextFrame(rest)
			if ferr != nil {
				broken = i
				break
			}
			if !ok {
				break
			}
			lsn, batch, derr := decodeRecord(payload)
			if derr != nil || (prevLSN != 0 && lsn != prevLSN+1) {
				// A frame that passes its CRC but decodes wrong, or
				// jumps the LSN sequence, is corruption too.
				broken = i
				break
			}
			off += int64(frameHeader + len(payload))
			rest = more
			prevLSN = lsn
			if lsn > maxLSN {
				maxLSN = lsn
			}
			if lsn > ckptLSN {
				store.ApplyBatch(batch)
				rs.RecordsReplayed++
				rs.WritesReplayed += len(batch)
			}
		}
		if broken < 0 {
			continue
		}
		// Truncate this segment at the bad frame and drop the rest.
		rs.TornBytes += int64(len(data)) - off
		if err := os.Truncate(sg.path, off); err != nil {
			dirf.Close()
			return nil, rs, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later.path); err != nil {
				dirf.Close()
				return nil, rs, fmt.Errorf("wal: dropping post-tear segment: %w", err)
			}
			rs.DroppedSegments++
		}
		segs = segs[:i+1]
		break
	}
	rs.MaxLSN = maxLSN

	// Phase 3: initialize watermarks and open a fresh active segment.
	// Everything recovered is durable, resolved, and — having just
	// been replayed into the store — applied.
	l.segments = segs
	l.next = maxLSN + 1
	l.nextWrite = maxLSN + 1
	l.floor = maxLSN
	l.resolved.Store(maxLSN)
	l.durable.Store(maxLSN)
	l.ckptLSN.Store(ckptLSN)
	l.recovery = rs

	l.tail = golc.New("wal/tail", golc.WithRuntime(opts.Runtime), golc.WithPolicy(opts.Policy))
	l.h = opts.Runtime.Register("wal/group-commit")
	l.h.SetPolicy(opts.Policy)
	l.site = l.h.Obs().NamedSite("wal/fsync")

	if err := l.openSegment(l.next); err != nil {
		dirf.Close()
		l.tail.Close()
		l.h.Close()
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	go l.syncer()
	return l, rs, nil
}

// openSegment makes the segment whose first LSN is first the active
// one, creating the file if needed (an interrupted recovery may have
// left an identical empty segment behind — reuse it) and fsyncing the
// directory so the entry survives a crash. Syncer-owned, except for
// the one call during Open before the syncer starts.
func (l *Log) openSegment(first uint64) error {
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := l.dirf.Sync(); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.segStart = first
	l.segSize = st.Size()
	l.segMu.Lock()
	if n := len(l.segments); n == 0 || l.segments[n-1].first != first {
		l.segments = append(l.segments, segment{path: path, first: first})
	}
	l.segMu.Unlock()
	return nil
}

// rotate closes the active segment and opens the next, named by the
// first LSN it will receive. Syncer-only.
func (l *Log) rotate() error {
	old := l.seg
	if err := l.openSegment(l.nextWrite); err != nil {
		return err
	}
	old.Close()
	l.rotations.Add(1)
	return nil
}

// Checkpoint writes a point-in-time image of the store to the log
// directory (tmp-then-rename, so a crash mid-checkpoint leaves the old
// one intact) and garbage-collects every segment fully covered by it.
// The cut is the applied floor: the largest LSN with every record at
// or below it already applied, which is the only prefix a concurrent
// snapshot is guaranteed to reflect. Records above the cut that the
// snapshot happens to catch are harmless — replay reapplies them in
// LSN order and physical redo is idempotent.
func (l *Log) Checkpoint() (uint64, error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if err := l.Wedged(); err != nil {
		return 0, err
	}
	cut := l.AppliedFloor()
	img := encodeCheckpoint(cut, l.store.Scan("", 0))

	tmp := filepath.Join(l.opts.Dir, ckptTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(img); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.opts.Dir, ckptName)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.dirf.Sync(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.ckptLSN.Store(cut)
	l.checkpoints.Add(1)

	// GC: a segment is dead once its successor's first LSN is at or
	// below cut+1 — then every record it holds is ≤ cut, inside the
	// checkpoint. The active (last) segment always survives.
	l.segMu.Lock()
	dead := 0
	for dead+1 < len(l.segments) && l.segments[dead+1].first <= cut+1 {
		dead++
	}
	doomed := make([]segment, dead)
	copy(doomed, l.segments[:dead])
	l.segments = append(l.segments[:0], l.segments[dead:]...)
	l.segMu.Unlock()
	for _, sg := range doomed {
		os.Remove(sg.path)
	}
	return cut, nil
}
