package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The tolerance keeps binary rounding of p (99.9 is not exact) from
	// pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// weightedPercentiles returns, for each p in ps (0 < p <= 100), the
// nearest-rank weighted percentile of xs under the weights ws: the smallest
// x whose cumulative weight, in ascending order of x, reaches p% of the
// total. With equal weights it equals percentile. It returns zeros for no
// weight.
func weightedPercentiles(xs, ws []float64, ps ...float64) []float64 {
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(ps))
	if total <= 0 {
		return out
	}
	for j, p := range ps {
		// As in percentile, the tolerance keeps rounding from pushing an
		// exact rank up by one.
		target := p/100*total - 1e-9*total
		cum := 0.0
		for _, i := range idx {
			cum += ws[i]
			out[j] = xs[i]
			if cum >= target {
				break
			}
		}
	}
	return out
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
