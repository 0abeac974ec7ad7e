package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds non-positive observations; bucket i (1 <= i < NumBuckets-1)
// holds [2^(i-1), 2^i - 1] nanoseconds; the last bucket absorbs
// everything from 2^(NumBuckets-2) ns (~19.5 hours) up. Power-of-two
// bucketing makes recording one bits.Len64 plus one atomic add, at the
// cost of quantiles being exact only to a factor of two — which the
// within-bucket interpolation in Quantile narrows far enough to agree
// with sampled percentiles in practice.
const NumBuckets = 48

// bucketOf maps an observation to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketUpper returns bucket i's inclusive upper bound in nanoseconds
// (math.MaxInt64 for the overflow bucket).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// bucketLower returns bucket i's inclusive lower bound.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// histShard is one writer shard: a cache-line-padded block of counters
// so concurrent recorders on different shards never false-share. 392
// bytes of counters padded to 448 (7 lines).
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	_       [56]byte
}

// Histogram is a lock-free log-bucketed latency histogram: writers
// pick a shard by a hash of their own stack address (distinct
// goroutines live on distinct stacks, so concurrent writers spread
// out) and do one atomic add per bucket observation; readers merge the
// shards into a HistSnapshot. There is deliberately no separate count
// word — the total is the sum of the buckets, so a snapshot's count
// always equals its +Inf cumulative bucket and the Prometheus
// _count/_bucket consistency holds by construction.
type Histogram struct {
	shards []histShard
}

// NewHistogram returns a histogram with the given number of writer
// shards, rounded up to a power of two (minimum 1). More shards cost
// memory (~450B each) and buy write-side isolation; global histograms
// want 8, per-lock ones 1-2.
func NewHistogram(shards int) *Histogram {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Histogram{shards: make([]histShard, n)}
}

// shard picks the calling goroutine's shard. The address of a stack
// local differs between goroutines by at least a stack's distance, so
// folding its high bits gives a stable, well-spread per-goroutine hint
// without any runtime hooks. The pointer never escapes (it is
// immediately reduced to an index), so this costs no allocation.
func (h *Histogram) shard() *histShard {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return &h.shards[(p^(p>>13))&uintptr(len(h.shards)-1)]
}

// Observe records one duration in nanoseconds. Safe for any number of
// concurrent callers; never blocks, never allocates.
func (h *Histogram) Observe(ns int64) {
	sh := h.shard()
	sh.buckets[bucketOf(ns)].Add(1)
	if ns > 0 {
		sh.sum.Add(uint64(ns))
	}
}

// Snapshot merges the shards into one consistent-enough view. Taken
// under concurrent writes, each counter is atomically read but the set
// is not a single atomic cut: a snapshot may split an in-flight
// Observe between Buckets and Sum. Count is derived from Buckets, so
// Count == sum(Buckets) always holds.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Sum += sh.sum.Load()
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// HistSnapshot is a merged point-in-time view of a Histogram, and the
// unit of further aggregation (Merge, Sub) and rendering (Quantile,
// Summary, PromWriter.Histogram).
type HistSnapshot struct {
	Buckets [NumBuckets]uint64 `json:"buckets"`
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum_ns"`
}

// Merge folds o into s (for aggregating many locks into one view).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub returns s - prev, the observations s holds beyond prev, an earlier
// snapshot of the same histogram: the distribution of the interval
// between the two reads.
func (s *HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := *s
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	d.Count -= prev.Count
	d.Sum -= prev.Sum
	return d
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds,
// interpolating linearly within the landing bucket. The estimate is
// inherently no finer than the bucket (a factor of two); for the
// overflow bucket it reports the bucket's lower bound. Returns 0 on an
// empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := bucketLower(i)
		if i == NumBuckets-1 {
			return lo
		}
		hi := BucketUpper(i)
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return BucketUpper(NumBuckets - 1)
}

// HistSummary is the compact rendering of a snapshot for /stats:
// count, mean, and the standard percentile trio.
type HistSummary struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// Summary computes the snapshot's HistSummary.
func (s *HistSnapshot) Summary() HistSummary {
	sum := HistSummary{Count: s.Count}
	if s.Count == 0 {
		return sum
	}
	sum.MeanNs = int64(s.Sum / s.Count)
	sum.P50Ns = s.Quantile(0.50)
	sum.P99Ns = s.Quantile(0.99)
	sum.P999Ns = s.Quantile(0.999)
	return sum
}
