// Package stats holds the latency-percentile helper the benchmark
// uses. It uses the nearest-rank definition, which is exact for every
// sample size: indexing by int(p*(N-1)) truncates toward zero, so a
// p99 over fewer than 100 samples would silently report the p98 (N=50:
// index 48 instead of 49) and a p95 over 20 samples the p90.
package stats

import (
	"math"
	"sort"
	"time"
)

// PercentileMS returns the p-th percentile (0 < p <= 1) of lat in
// milliseconds, using the nearest-rank method: the smallest sample v
// such that at least ceil(p*N) of the samples are <= v. An empty
// sample yields 0. The slice is sorted in place, so callers computing
// several percentiles of one sample pay for a single sort.
func PercentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(lat, func(i, j int) bool { return lat[i] < lat[j] }) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	return float64(lat[nearestRank(len(lat), p)].Microseconds()) / 1e3
}

// nearestRank maps percentile p over a sorted sample of size n to the
// 0-based index ceil(p*n)-1, clamped into range. Unlike the truncating
// int(p*(n-1)) it replaced, this never understates a tail percentile:
// for n=50, p=0.99 it picks index 49 (the maximum), not 48.
func nearestRank(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
