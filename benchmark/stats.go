package main

import (
	"math"
	"slices"

	"repro/internal/golc/obs"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietQuarter is the mean of the highest quarter of per-slice rates
// (never fewer than one): what the system did in the quarter of a window
// the machine disturbed least. A median over slices flips between two
// levels when a neighbour is busy for about half of them; this moves
// only when three quarters are disturbed, and the mean of several order
// statistics is steadier than any one of them.
func quietQuarter(rates []float64) float64 {
	n := len(rates)
	if n == 0 {
		return 0
	}
	s := slices.Clone(rates)
	slices.Sort(s)
	top := s[n-(n+3)/4:]
	sum := 0.0
	for _, v := range top {
		sum += v
	}
	return sum / float64(len(top))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), so spreads computed here match the ones the acceptance
// driver computes. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every regression bound is judged against.
// Fewer than two values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// supportedQuantile lowers want to the highest quantile that still has
// at least ten of the n samples beyond it; with too few samples for
// anything above the median it returns 0.5.
func supportedQuantile(n int, want float64) float64 {
	if n <= 20 {
		return 0.5
	}
	return max(0.5, min(want, 1-10/float64(n)))
}

// quantileSorted is the exact order statistic at q of ascending
// samples: the smallest value with at least q of the samples at or
// below it.
func quantileSorted[T any](sorted []T, q float64) T {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// histDelta subtracts an earlier snapshot of a histogram from a later
// one, leaving the distribution of the interval between them.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	for i := range after.Buckets {
		after.Buckets[i] -= before.Buckets[i]
	}
	after.Count -= before.Count
	after.Sum -= before.Sum
	return after
}

// ratio is a/b, and 0 when b is 0: per-transaction rates of a layer
// that saw no work read as zero rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
