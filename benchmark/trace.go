package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// The harness's own span recorder: spans are taken from outside the
// layers, around calls into their public functions, kept in memory and
// written when the run ends. Spans of one operation share its op id; a
// child names its parent span.

type spanName uint8

const (
	noSpan      spanName = iota
	spanTxn              // root: one workload transaction, as its caller saw it
	spanRTT              // child of txn: the HTTP round trip
	spanOltpTxn          // probe: the HTTP mix's op lists through an in-process engine
	spanGet              // probes below: one timed batch of probeBatch calls each
	spanPut
	spanApply
	spanCommit // probe: one Log.Commit
)

var spanNames = [...]string{
	noSpan: "", spanTxn: "txn", spanRTT: "lcserve.rtt", spanOltpTxn: "oltp.txn",
	spanGet: "kv.get", spanPut: "kv.put", spanApply: "kv.applybatch", spanCommit: "wal.commit",
}

type span struct {
	op         uint64
	start, end int64 // ns since the tracer's epoch
	name       spanName
	parent     spanName
}

const (
	windowSpanBudget = 1 << 19 // spans a traced window keeps, across workers
	probeSpanBudget  = 1 << 16 // spans one probe keeps, across workers
)

// tracer owns the spans of one traced run.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a span ring for one of workers workers sharing budget.
// Rings live off the Go heap (see offHeap) until the process exits.
func (t *tracer) buf(workers, budget int) (*spanBuf, error) {
	ring, _, err := offHeap[span](max(1, budget/workers))
	if err != nil {
		return nil, err
	}
	b := &spanBuf{epoch: t.epoch, worker: uint64(len(t.bufs)), ring: ring}
	t.bufs = append(t.bufs, b)
	return b, nil
}

// spanBuf is one worker's ring of spans: the cost per span is constant
// and memory is bounded; once full, the oldest spans are overwritten.
type spanBuf struct {
	epoch  time.Time
	worker uint64 // unique per ring, so op ids never collide across windows and probes
	seq    uint64 // operations finished so far
	n      uint64 // spans ever added
	ring   []span
}

func (b *spanBuf) add(name, parent spanName, start, end time.Time) {
	b.ring[b.n%uint64(len(b.ring))] = span{
		op: b.worker<<40 | b.seq, name: name, parent: parent,
		start: start.Sub(b.epoch).Nanoseconds(), end: end.Sub(b.epoch).Nanoseconds(),
	}
	b.n++
}

// child records a span inside the operation whose root has not been
// closed yet.
func (b *spanBuf) child(name spanName, start, end time.Time) { b.add(name, spanTxn, start, end) }

// root closes the current operation with its root span.
func (b *spanBuf) root(start, end time.Time) {
	b.add(spanTxn, noSpan, start, end)
	b.seq++
}

// single records a parentless span that is an operation of its own (a
// probe's timed call).
func (b *spanBuf) single(name spanName, start, end time.Time) {
	b.add(name, noSpan, start, end)
	b.seq++
}

func (b *spanBuf) kept() []span { return b.ring[:min(b.n, uint64(len(b.ring)))] }

// durations returns the sorted durations, in ns, of the kept spans
// called name.
func (t *tracer) durations(name spanName) []float64 {
	var d []float64
	for _, b := range t.bufs {
		for _, s := range b.kept() {
			if s.name == name {
				d = append(d, float64(s.end-s.start))
			}
		}
	}
	slices.Sort(d)
	return d
}

// quantile is the q-quantile duration in ns of the spans called name,
// lowered to what their number supports, or 0 with none.
func (t *tracer) quantile(name spanName, q float64) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return quantileSorted(d, supportedQuantile(len(d), q))
}

// write dumps every kept span, and how many were overwritten, to path.
func (t *tracer) write(path, workload string) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		Op      uint64 `json:"op"`
		Parent  string `json:"parent,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Dropped  uint64     `json:"dropped"`
		Spans    []jsonSpan `json:"spans"`
	}{Workload: workload, Spans: []jsonSpan{}}
	for _, b := range t.bufs {
		out.Dropped += b.n - uint64(len(b.kept()))
		for _, s := range b.kept() {
			out.Spans = append(out.Spans, jsonSpan{spanNames[s.name], s.op, spanNames[s.parent], s.start, s.end})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
