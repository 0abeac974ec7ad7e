package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Blame attribution: who blocks whom. A blame-sampled contended
// acquisition captures the WAITER's acquire call site (runtime.Callers)
// and pairs it with the current HOLDER's stamped acquire site (a field
// the holder published under the lock), producing a
// (waiter site, holder site, lock, wait ns) edge. Edges aggregate
// lock-free into a fixed-size site×site matrix: sites and lock names
// are interned once (a mutexed map on the rare first sight of a site),
// the hot record path is a CAS-claimed cell and two atomic adds.
//
// Sites come in two flavors: stack sites (a captured PC chain, the
// physical acquire path) and named sites (an interned label, e.g. the
// oltp lock manager's logical partition/record blame classes). Both
// share one ID space, so physical and logical edges live in the same
// matrix and the same expositions.

// SiteID identifies one interned acquire site; 0 means "unknown" (not
// sampled, holder unstamped, or the intern table full).
type SiteID uint32

const (
	// blameMaxFrames bounds a captured waiter stack. Deep enough to
	// reach through the lock wrapper into real application frames.
	blameMaxFrames = 12

	// blameCells is the fixed matrix capacity (distinct edges); the
	// overflow is counted in dropped, never silently lost.
	blameCells     = 1 << 12
	blameMaxProbes = 64

	// Cell keys pack (waiter, holder, lock) IDs into 20 bits each, so
	// the intern tables cap at 2^20-1 entries; later sites degrade to
	// "unknown" rather than growing without bound.
	blameIDBits = 20
	blameMaxID  = 1<<blameIDBits - 1
)

// blameCell is one matrix entry. key is the packed
// (waiter, holder, lock) identity (0 = empty; a set high bit keeps
// every real key nonzero); count and ns accumulate the edge.
type blameCell struct {
	key   atomic.Uint64
	count atomic.Uint64
	ns    atomic.Uint64
}

// blameSite is one interned site: either a PC chain (stack site) or a
// label (named site).
type blameSite struct {
	pcs  []uintptr
	name string
}

// blameTable owns the intern maps and the cell matrix. The mutex
// guards interning only — recording into cells is lock-free.
type blameTable struct {
	mu        sync.RWMutex
	byStack   map[[blameMaxFrames]uintptr]SiteID
	byName    map[string]SiteID
	sites     []blameSite // SiteID-1 indexed
	lockIDs   map[string]uint32
	lockNames []string // lock ID-1 indexed

	dropped atomic.Uint64
	cells   [blameCells]blameCell
}

func newBlameTable() *blameTable {
	return &blameTable{
		byStack: make(map[[blameMaxFrames]uintptr]SiteID),
		byName:  make(map[string]SiteID),
		lockIDs: make(map[string]uint32),
	}
}

// internStack returns the SiteID for a captured PC chain, interning it
// on first sight. Zero-padded fixed arrays key the map, so lookups
// allocate nothing.
func (t *blameTable) internStack(key [blameMaxFrames]uintptr) SiteID {
	t.mu.RLock()
	id, ok := t.byStack[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.byStack[key]; ok {
		return id
	}
	if len(t.sites) >= blameMaxID {
		return 0
	}
	n := 0
	for n < len(key) && key[n] != 0 {
		n++
	}
	pcs := make([]uintptr, n)
	copy(pcs, key[:n])
	t.sites = append(t.sites, blameSite{pcs: pcs})
	id = SiteID(len(t.sites))
	t.byStack[key] = id
	return id
}

// internName returns the SiteID for a label, interning it on first
// sight.
func (t *blameTable) internName(name string) SiteID {
	t.mu.RLock()
	id, ok := t.byName[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.byName[name]; ok {
		return id
	}
	if len(t.sites) >= blameMaxID {
		return 0
	}
	t.sites = append(t.sites, blameSite{name: name})
	id = SiteID(len(t.sites))
	t.byName[name] = id
	return id
}

// internLock returns the lock-name ID, interning on first sight.
func (t *blameTable) internLock(name string) uint32 {
	t.mu.RLock()
	id, ok := t.lockIDs[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.lockIDs[name]; ok {
		return id
	}
	if len(t.lockNames) >= blameMaxID {
		return 0
	}
	t.lockNames = append(t.lockNames, name)
	id = uint32(len(t.lockNames))
	t.lockIDs[name] = id
	return id
}

// add accumulates one edge into the matrix: open-addressed linear
// probing over CAS-claimed cells. A full neighborhood drops the edge
// and counts it (bounded memory beats silent growth; the drop counter
// keeps the truncation visible).
func (t *blameTable) add(key uint64, ns int64) {
	if ns < 0 {
		ns = 0
	}
	// splitmix-style finalizer spreads the packed IDs across the table.
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	for i := uint64(0); i < blameMaxProbes; i++ {
		c := &t.cells[(h+i)&(blameCells-1)]
		k := c.key.Load()
		if k == 0 {
			if c.key.CompareAndSwap(0, key) {
				k = key
			} else {
				k = c.key.Load()
			}
		}
		if k == key {
			c.count.Add(1)
			c.ns.Add(uint64(ns))
			return
		}
	}
	t.dropped.Add(1)
}

func packBlameKey(waiter, holder SiteID, lock uint32) uint64 {
	return 1<<63 |
		uint64(waiter&blameMaxID)<<(2*blameIDBits) |
		uint64(holder&blameMaxID)<<blameIDBits |
		uint64(lock&blameMaxID)
}

// BlameSampled is the blame sampling gate: it reports whether the
// contended acquisition numbered seq should capture a blame edge. seq
// is the caller's own count (a lock's contended waits, the lock
// manager's logical waits), as HoldStamp's is, so the gate writes
// nothing: two loads. Callers that get true pay for runtime.Callers.
func (r *Recorder) BlameSampled(seq uint64) bool {
	return seq&r.blameMask.Load() == 0 && r.enabled.Load()
}

// CallerSite captures and interns the calling goroutine's stack as a
// site. skip counts frames above CallerSite itself to omit (0 starts
// at CallerSite's caller). Returns 0 if nothing was captured or the
// intern table is full. Call only behind BlameSampled — this is the
// expensive part.
func (r *Recorder) CallerSite(skip int) SiteID {
	var pcs [blameMaxFrames]uintptr
	if runtime.Callers(skip+2, pcs[:]) == 0 {
		return 0
	}
	return r.blame.internStack(pcs)
}

// NamedSite interns a logical (label-only) site, e.g. an oltp
// partition/record blame class. Stable labels intern once and are cheap
// thereafter.
func (r *Recorder) NamedSite(name string) SiteID {
	if name == "" {
		return 0
	}
	return r.blame.internName(name)
}

// RecordBlame accumulates one blame edge: waiter blocked ns
// nanoseconds on lock while holder held it. holder 0 records an
// unknown-holder edge (the holder's acquisition was not sampled);
// waiter 0 is a no-op.
func (r *Recorder) RecordBlame(waiter, holder SiteID, lock string, ns int64) {
	if waiter == 0 {
		return
	}
	r.blame.add(packBlameKey(waiter, holder, r.blame.internLock(lock)), ns)
}

// BlameDropped returns how many edges were dropped because the matrix
// neighborhood was full.
func (r *Recorder) BlameDropped() uint64 { return r.blame.dropped.Load() }

// BlameEdge is one resolved matrix entry. Stack sites carry PCs (and
// an empty Name); named sites carry Name (and nil PCs). A zero-valued
// endpoint (nil PCs, empty Name) is an unknown holder.
type BlameEdge struct {
	WaiterPCs  []uintptr
	WaiterName string
	HolderPCs  []uintptr
	HolderName string
	Lock       string
	Count      uint64
	Ns         uint64
}

// BlameEdges resolves the matrix into edges, sorted by blocked
// nanoseconds descending (count breaks ties). The snapshot is
// consistent-enough under concurrent recording: each cell's counters
// are read atomically but the set is not one atomic cut.
func (r *Recorder) BlameEdges() []BlameEdge {
	t := r.blame
	type rawCell struct {
		key       uint64
		count, ns uint64
	}
	var raw []rawCell
	for i := range t.cells {
		c := &t.cells[i]
		k := c.key.Load()
		if k == 0 {
			continue
		}
		n := c.count.Load()
		if n == 0 {
			continue // claimed but not yet accumulated
		}
		raw = append(raw, rawCell{key: k, count: n, ns: c.ns.Load()})
	}
	t.mu.RLock()
	site := func(id SiteID) blameSite {
		if id == 0 || int(id) > len(t.sites) {
			return blameSite{}
		}
		return t.sites[id-1]
	}
	lockName := func(id uint32) string {
		if id == 0 || int(id) > len(t.lockNames) {
			return ""
		}
		return t.lockNames[id-1]
	}
	edges := make([]BlameEdge, 0, len(raw))
	for _, c := range raw {
		w := site(SiteID(c.key >> (2 * blameIDBits) & blameMaxID))
		h := site(SiteID(c.key >> blameIDBits & blameMaxID))
		edges = append(edges, BlameEdge{
			WaiterPCs:  w.pcs,
			WaiterName: w.name,
			HolderPCs:  h.pcs,
			HolderName: h.name,
			Lock:       lockName(uint32(c.key & blameMaxID)),
			Count:      c.count,
			Ns:         c.ns,
		})
	}
	t.mu.RUnlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Ns != edges[j].Ns {
			return edges[i].Ns > edges[j].Ns
		}
		return edges[i].Count > edges[j].Count
	})
	return edges
}

// BlameEntry is one leaderboard row: the display-form of a BlameEdge
// for /stats, history ticks, and lctop reports.
type BlameEntry struct {
	Waiter string `json:"waiter"`
	Holder string `json:"holder"`
	Lock   string `json:"lock"`
	Count  uint64 `json:"count"`
	Ns     uint64 `json:"blocked_ns"`
}

// BlameTop returns the k worst edges (by blocked nanoseconds) in
// display form; k < 0 returns all.
func (r *Recorder) BlameTop(k int) []BlameEntry {
	edges := r.BlameEdges()
	if k >= 0 && len(edges) > k {
		edges = edges[:k]
	}
	out := make([]BlameEntry, 0, len(edges))
	for _, e := range edges {
		out = append(out, BlameEntry{
			Waiter: SiteLabel(e.WaiterPCs, e.WaiterName),
			Holder: SiteLabel(e.HolderPCs, e.HolderName),
			Lock:   e.Lock,
			Count:  e.Count,
			Ns:     e.Ns,
		})
	}
	return out
}

// SiteLabel renders one edge endpoint for humans: a named site's
// label, the innermost application frame of a stack site (golc's own
// lock/runtime frames are skipped so the blame names the caller, not
// the lock implementation), or "unknown" for a 0 site.
func SiteLabel(pcs []uintptr, name string) string {
	if name != "" {
		return name
	}
	if len(pcs) == 0 {
		return "unknown"
	}
	frames := runtime.CallersFrames(pcs)
	first := ""
	for {
		f, more := frames.Next()
		if f.Function != "" {
			if first == "" {
				first = frameLabel(f)
			}
			if !internalLockFrame(f.Function) {
				return frameLabel(f)
			}
		}
		if !more {
			break
		}
	}
	if first != "" {
		return first // all frames internal: better than "unknown"
	}
	return "unknown"
}

func frameLabel(f runtime.Frame) string {
	if f.Line > 0 {
		return fmt.Sprintf("%s:%d", f.Function, f.Line)
	}
	return f.Function
}

// internalLockFrame reports whether fn is part of the lock runtime
// itself (golc, its runtime, or this package) — frames a blame label
// should look through to reach the application's acquire site. The
// match is exact on the package path ("internal/golc." is golc itself,
// "internal/golc/" its subpackages) so neighbors like the golc_test
// external test package still count as application code.
func internalLockFrame(fn string) bool {
	return strings.Contains(fn, "internal/golc.") ||
		strings.Contains(fn, "internal/golc/")
}
