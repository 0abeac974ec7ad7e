package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuietQuarter(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{4, 1, 3, 2}, 4},               // one of four
		{[]float64{5, 1, 4, 2, 3}, 4.5},          // a quarter of five rounds up to two
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 7.5}, // two of eight
		{[]float64{1, 1, 1, 9, 9, 9, 9, 1}, 9},   // half the slices disturbed: no effect
		{[]float64{1, 1, 1, 1, 1, 1, 9, 1}, 5},   // seven in eight disturbed: shows
	} {
		if got := quietQuarter(c.in); !near(got, c.want) {
			t.Errorf("quietQuarter(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{52.1, 53.8, 53.3, 52.9, 54.4, 51.7, 53.0, 53.1, 52.2, 53.6}, 52.175, 53.05, 53.65},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("one value has spread %v", s)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(s, 1) {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("all-zero values have spread %v", s)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{100000, 0.99, 0.99}, // plenty beyond p99
		{1000, 0.99, 0.99},   // exactly ten beyond
		{999, 0.99, 1 - 10.0/999},
		{200, 0.99, 0.95},
		{25, 0.99, 0.6},
		{20, 0.99, 0.5},
		{3, 0.99, 0.5},
		{1000, 0.5, 0.5},
	} {
		if got := supportedQuantile(c.n, c.want); !near(got, c.q) {
			t.Errorf("supportedQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.q)
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}, {0, 10},
	} {
		if got := quantileSorted(v, c.q); got != c.want {
			t.Errorf("quantileSorted(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSliceLatencyGroupsSparseSlices(t *testing.T) {
	// Ten slices of 300 write samples among 3000: writes must be grouped
	// (300 < tailSupport) and still report a p99; all samples need not be.
	perSlice := make([][]sample, 10)
	for s := range perSlice {
		for i := 0; i < 3000; i++ {
			v := sample(1000 * (i + 1))
			if i%10 == 0 {
				v |= sampleWrite
			}
			perSlice[s] = append(perSlice[s], v)
		}
	}
	all := sliceLatency(perSlice, func(sample) bool { return true })
	if all.groups != 10 || all.tailQ != 0.99 || all.n != 30000 {
		t.Errorf("all samples: %+v, want 10 groups at p99 over 30000", all)
	}
	if !near(all.p50us, 1500) || !near(all.tailus, 2970) {
		t.Errorf("all samples: p50 %v us tail %v us, want 1500 and 2970", all.p50us, all.tailus)
	}
	w := sliceLatency(perSlice, func(s sample) bool { return s&sampleWrite != 0 })
	if w.groups != 1 || w.groupN != 3000 || w.tailQ != 0.99 {
		t.Errorf("write samples: %+v, want one group of 3000 at p99", w)
	}
	if none := sliceLatency(perSlice, func(sample) bool { return false }); none.n != 0 || none.p50us != 0 {
		t.Errorf("no samples: %+v", none)
	}
}
