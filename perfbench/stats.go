package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to be reported at all: a p90 over 20 samples is
// decided by two of them and moves with every run.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q·n samples at or below it. xs is
// sorted in place. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailOK reports whether n samples support the q-quantile under the
// ten-samples-beyond rule.
func tailOK(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
