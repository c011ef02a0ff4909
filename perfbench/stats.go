package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
// With fewer, the percentile is an extreme value, not a distribution point.
const minBeyond = 10

// tailLadder is the set of percentiles tail reports, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// beyond counts the samples ranked strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tail returns the highest percentile no larger than want that has at least
// minBeyond samples beyond it, together with its value. When even the median
// lacks that many, it returns the median.
func tail(sorted []float64, want float64) (p, v float64) {
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if beyond(len(sorted), q) >= minBeyond || q == 50 {
			return q, pct(sorted, q)
		}
	}
	return 50, pct(sorted, 50)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the two middle values for even lengths).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
