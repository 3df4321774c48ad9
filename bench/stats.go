package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample, 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// percentileLadder is the fixed set of percentiles a report may quote, each
// with the share of samples beyond it as 1/beyond.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}, {99.999, 100_000}}

// supportedPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it; a tail quoted from fewer is one
// scheduler hiccup, not a distribution. Samples under 100 support only p50.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder {
		if n/l.beyond >= 10 {
			best = l.p
		}
	}
	return best
}

func sortDurations(v []time.Duration) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of xs (not modified); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) (exclusive method) gives them — the
// definition the acceptance rule for run-to-run spread uses. Needs ≥2 values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of xs as a share of its median;
// 0 when there are fewer than two values or the median is 0.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
