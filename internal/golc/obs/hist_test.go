package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the bucket map: non-positive values to
// bucket 0, 1ns to bucket 1, exact powers of two to the bucket they
// open, power-of-two-minus-one to the bucket below, and huge values
// clamped into the overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1 << 10, 11},
		{1<<10 - 1, 10},
		{1<<46 - 1, NumBuckets - 2},
		{1 << 46, NumBuckets - 1}, // first clamped value
		{1 << 60, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every value must land within its bucket's [lower, upper] range.
	for _, ns := range []int64{1, 2, 3, 100, 999, 12345, 1e9, 1e15} {
		b := bucketOf(ns)
		if lo, hi := bucketLower(b), BucketUpper(b); ns < lo || ns > hi {
			t.Errorf("ns=%d bucket %d bounds [%d,%d] exclude it", ns, b, lo, hi)
		}
	}
	if got := BucketUpper(NumBuckets - 1); got != math.MaxInt64 {
		t.Errorf("overflow bucket upper = %d, want MaxInt64", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	h := NewHistogram(4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(goroutines * perG); s.Count != want {
		t.Fatalf("Count = %d, want %d", s.Count, want)
	}
	// Sum of 1..N.
	n := uint64(goroutines * perG)
	if want := n * (n + 1) / 2; s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != Count %d", total, s.Count)
	}
}

// TestSnapshotUnderLoad takes snapshots while writers run: Count must
// equal the bucket sum in every snapshot (the invariant Prometheus
// exposition relies on) and must never go backwards.
func TestSnapshotUnderLoad(t *testing.T) {
	h := NewHistogram(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(i % 100000)
				}
			}
		}()
	}
	var prev uint64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Buckets {
			total += c
		}
		if total != s.Count {
			t.Fatalf("snapshot %d: bucket total %d != Count %d", i, total, s.Count)
		}
		if s.Count < prev {
			t.Fatalf("snapshot %d: Count went backwards (%d < %d)", i, s.Count, prev)
		}
		prev = s.Count
	}
	close(stop)
	wg.Wait()
}

// TestMergeConsistency merges concurrent snapshots of two histograms
// and checks the merge is exact once writers quiesce.
func TestMergeConsistency(t *testing.T) {
	a, b := NewHistogram(2), NewHistogram(2)
	const n = 5000
	var wg sync.WaitGroup
	for _, h := range []*Histogram{a, b} {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				h.Observe(int64(i))
			}
		}(h)
	}
	wg.Wait()
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Count != 2*n {
		t.Fatalf("merged Count = %d, want %d", m.Count, 2*n)
	}
	if want := uint64(n) * (n + 1); m.Sum != want { // 2 * n(n+1)/2
		t.Fatalf("merged Sum = %d, want %d", m.Sum, want)
	}
	// Merging must match observing everything into one histogram.
	one := NewHistogram(1)
	for i := 1; i <= n; i++ {
		one.Observe(int64(i))
		one.Observe(int64(i))
	}
	if o := one.Snapshot(); o.Buckets != m.Buckets {
		t.Fatalf("merged buckets differ from single-histogram buckets")
	}
}

// TestSubIsTheInterval: a later snapshot less an earlier one of the
// same histogram is exactly what was observed in between.
func TestSubIsTheInterval(t *testing.T) {
	h, between := NewHistogram(1), NewHistogram(1)
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i))
	}
	before := h.Snapshot()
	for i := 1; i <= 500; i++ {
		h.Observe(int64(i) << 20)
		between.Observe(int64(i) << 20)
	}
	after := h.Snapshot()
	if got, want := after.Sub(before), between.Snapshot(); got != want {
		t.Fatalf("after.Sub(before) = %+v, want the interval's own %+v", got, want)
	}
	if d := after.Sub(after); d != (HistSnapshot{}) {
		t.Fatalf("s.Sub(s) = %+v, want empty", d)
	}
}

// TestQuantile sanity-checks the interpolated quantiles against a
// uniform population: estimates must land within the bucket (factor
// of two) of the true value and be monotone in q.
func TestQuantile(t *testing.T) {
	h := NewHistogram(1)
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, n / 2}, {0.99, n * 99 / 100}, {0.999, n * 999 / 1000}} {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("Quantile(%v) = %d, want within 2x of %d", c.q, got, c.want)
		}
	}
	if s.Quantile(0.5) > s.Quantile(0.99) || s.Quantile(0.99) > s.Quantile(0.999) {
		t.Errorf("quantiles not monotone: p50=%d p99=%d p999=%d",
			s.Quantile(0.5), s.Quantile(0.99), s.Quantile(0.999))
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	sum := s.Summary()
	if sum.Count != n || sum.P50Ns == 0 || sum.P99Ns == 0 || sum.P999Ns == 0 || sum.MeanNs == 0 {
		t.Errorf("Summary incomplete: %+v", sum)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

// TestQuantileEdgeCases pins Quantile's behavior at the corners of the
// bucket scheme: empty snapshots, a single sample, the non-positive
// bucket, the overflow bucket, and within-bucket interpolation when
// every observation lands in one bucket.
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// One sample: every quantile must land inside its bucket ([4,7]
	// for an observation of 5).
	single := NewHistogram(1)
	single.Observe(5)
	s := single.Snapshot()
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := s.Quantile(q); got < 4 || got > 7 {
			t.Errorf("single-sample Quantile(%v) = %d, want within [4,7]", q, got)
		}
	}

	// Non-positive observations land in bucket 0, whose both bounds
	// are 0.
	first := NewHistogram(1)
	first.Observe(0)
	first.Observe(-12)
	s = first.Snapshot()
	if got := s.Quantile(0.99); got != 0 {
		t.Errorf("bucket-0 Quantile = %d, want 0", got)
	}
	if s.Count != 2 || s.Sum != 0 {
		t.Errorf("bucket-0 snapshot count=%d sum=%d, want 2 and 0", s.Count, s.Sum)
	}

	// The overflow bucket has no finite upper bound, so Quantile
	// reports its lower bound rather than inventing an interpolation.
	over := NewHistogram(1)
	over.Observe(math.MaxInt64)
	s = over.Snapshot()
	if want := int64(1) << (NumBuckets - 2); s.Quantile(0.5) != want {
		t.Errorf("overflow Quantile = %d, want bucket lower bound %d", s.Quantile(0.5), want)
	}

	// All mass in one bucket: interpolation must sweep the bucket's
	// range [512,1023] monotonically and hit the upper bound at q=1.
	one := NewHistogram(1)
	for i := 0; i < 100; i++ {
		one.Observe(512)
	}
	s = one.Snapshot()
	lo, mid, hi := s.Quantile(0.01), s.Quantile(0.5), s.Quantile(1)
	if lo < 512 || hi > 1023 {
		t.Errorf("interpolation left the bucket: q01=%d q100=%d, want within [512,1023]", lo, hi)
	}
	if !(lo < mid && mid < hi) {
		t.Errorf("interpolation not strictly monotone within bucket: %d, %d, %d", lo, mid, hi)
	}
	if hi != 1023 {
		t.Errorf("Quantile(1) = %d, want bucket upper bound 1023", hi)
	}
}
