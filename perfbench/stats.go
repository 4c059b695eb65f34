package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place: the smallest value with at least p% of
// the samples at or below it. It returns 0 for no samples.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the median of xs (mean of the middle two for an even
// count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
