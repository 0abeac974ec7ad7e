// Package stats provides the small statistics toolkit the experiment
// harnesses use: running moments and time-weighted series for load
// traces.
package stats

import (
	"math"
	"sort"
)

// Running accumulates count, mean and variance online (Welford).
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 for empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the sample variance (0 for n < 2).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Stddev returns the sample standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation (0 for empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 for empty).
func (r *Running) Max() float64 { return r.max }

// CoV returns the coefficient of variation (stddev/mean), the paper's
// implicit variability metric in Figure 5 discussions.
func (r *Running) CoV() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.Stddev() / math.Abs(r.mean)
}

// TimeSeries is a step function of float64 over int64 timestamps,
// recording (t, value) change points. It answers time-weighted means and
// can be resampled for plotting.
type TimeSeries struct {
	ts []int64
	vs []float64
}

// Record appends a change point; timestamps must be non-decreasing.
func (s *TimeSeries) Record(t int64, v float64) {
	if n := len(s.ts); n > 0 && t < s.ts[n-1] {
		panic("stats: time series timestamps must be non-decreasing")
	}
	// Collapse same-instant updates to the latest value.
	if n := len(s.ts); n > 0 && s.ts[n-1] == t {
		s.vs[n-1] = v
		return
	}
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Len returns the number of change points.
func (s *TimeSeries) Len() int { return len(s.ts) }

// At returns the value in effect at time t (0 before the first point).
func (s *TimeSeries) At(t int64) float64 {
	i := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] > t }) - 1
	if i < 0 {
		return 0
	}
	return s.vs[i]
}

// WeightedMean returns the time-weighted mean over [from, to).
func (s *TimeSeries) WeightedMean(from, to int64) float64 {
	if to <= from || len(s.ts) == 0 {
		return 0
	}
	var sum float64
	cur := s.At(from)
	last := from
	for i, t := range s.ts {
		if t <= from {
			continue
		}
		if t >= to {
			break
		}
		sum += cur * float64(t-last)
		cur = s.vs[i]
		last = t
	}
	sum += cur * float64(to-last)
	return sum / float64(to-from)
}

// Resample returns n equally spaced (t, value) points over [from, to].
func (s *TimeSeries) Resample(from, to int64, n int) ([]int64, []float64) {
	if n < 2 {
		n = 2
	}
	ts := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		t := from + int64(float64(to-from)*float64(i)/float64(n-1))
		ts[i] = t
		vs[i] = s.At(t)
	}
	return ts, vs
}

// MinMax returns the extremes of the recorded values.
func (s *TimeSeries) MinMax() (lo, hi float64) {
	if len(s.vs) == 0 {
		return 0, 0
	}
	lo, hi = s.vs[0], s.vs[0]
	for _, v := range s.vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
