package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤ 100)
// of xs: the smallest value with at least p % of the samples at or below
// it. xs is not modified. An empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle values for even counts, unlike
// percentile(xs, 50): it is used where runs are compared, not for latency.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method), the spread the
// acceptance rule of the benchmark is written in. Needs ≥ 2 values.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(s)-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// worsening returns by what share of base the value got worse (positive =
// worse) given the metric's direction.
func worsening(better string, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - value) / math.Abs(base)
	}
	return (value - base) / math.Abs(base)
}
