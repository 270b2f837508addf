package main

import (
	"math"
	"sort"

	"aspeo/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p95 needs at least 200 samples, a p50 at least 20.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= minBeyond
}

// median is stats.Median, or 0 for no samples (a layer the workload
// never enters).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
