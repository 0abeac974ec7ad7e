package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var r Running
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
			r.Add(x)
		}
		if len(clean) == 0 {
			return r.N() == 0
		}
		sum := 0.0
		for _, x := range clean {
			sum += x
		}
		mean := sum / float64(len(clean))
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(r.Mean()-mean) < 1e-6*scale
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesAt(t *testing.T) {
	var ts TimeSeries
	ts.Record(10, 1)
	ts.Record(20, 3)
	ts.Record(30, 2)
	cases := []struct {
		t int64
		v float64
	}{{5, 0}, {10, 1}, {15, 1}, {20, 3}, {29, 3}, {30, 2}, {1000, 2}}
	for _, c := range cases {
		if got := ts.At(c.t); got != c.v {
			t.Fatalf("At(%d) = %v, want %v", c.t, got, c.v)
		}
	}
}

func TestTimeSeriesWeightedMean(t *testing.T) {
	var ts TimeSeries
	ts.Record(0, 2)
	ts.Record(10, 4)
	// [0,20): 10 ns at 2, 10 ns at 4 → 3.
	if got := ts.WeightedMean(0, 20); math.Abs(got-3) > 1e-12 {
		t.Fatalf("WeightedMean = %v, want 3", got)
	}
	// [5,15): 5 at 2, 5 at 4 → 3.
	if got := ts.WeightedMean(5, 15); math.Abs(got-3) > 1e-12 {
		t.Fatalf("WeightedMean = %v, want 3", got)
	}
}

func TestTimeSeriesSameInstantCollapse(t *testing.T) {
	var ts TimeSeries
	ts.Record(10, 1)
	ts.Record(10, 5)
	if ts.Len() != 1 || ts.At(10) != 5 {
		t.Fatalf("same-instant collapse failed: len=%d at=%v", ts.Len(), ts.At(10))
	}
}

func TestTimeSeriesBackwardsPanics(t *testing.T) {
	var ts TimeSeries
	ts.Record(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards timestamp")
		}
	}()
	ts.Record(5, 2)
}

func TestTimeSeriesResample(t *testing.T) {
	var ts TimeSeries
	ts.Record(0, 1)
	ts.Record(50, 9)
	xs, vs := ts.Resample(0, 100, 5)
	if len(xs) != 5 || len(vs) != 5 {
		t.Fatal("wrong resample size")
	}
	if vs[0] != 1 || vs[1] != 1 || vs[2] != 9 || vs[4] != 9 {
		t.Fatalf("resample values = %v", vs)
	}
}

func TestTimeSeriesMinMax(t *testing.T) {
	var ts TimeSeries
	ts.Record(0, 5)
	ts.Record(1, -2)
	ts.Record(2, 11)
	lo, hi := ts.MinMax()
	if lo != -2 || hi != 11 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestCoV(t *testing.T) {
	var r Running
	r.Add(10)
	r.Add(10)
	r.Add(10)
	if r.CoV() != 0 {
		t.Fatalf("CoV of constants = %v", r.CoV())
	}
	var r2 Running
	r2.Add(0)
	if r2.CoV() != 0 {
		t.Fatal("CoV with zero mean should be 0")
	}
}
