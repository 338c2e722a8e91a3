package main

import (
	"fmt"
	"sort"
)

// beyond is how many samples must lie above a reported percentile: a
// percentile with fewer is set by a handful of outliers and repeats
// poorly (p99 needs 1,000 samples, p90 100, the median 20).
const beyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, or an error
// when fewer than beyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := float64(len(sorted))
	const eps = 1e-9 // 100 × (1 − 0.9) is 9.999…8 in floating point
	if n*(1-q) < beyond-eps {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", q*100, len(sorted), n*(1-q), beyond)
	}
	return sorted[int(n*q+eps)], nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without the sample-count rule: it aggregates
// per-segment figures and repeated set-ups, not raw latencies.
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

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method, the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
