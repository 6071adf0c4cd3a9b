package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: fewer, and the "p99" is one or two outliers.
const minTail = 10

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs; 0 for
// an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100) and whether it is supported: above the median, at least minTail
// samples must lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p > 50 && n-rank(n, p/100) < minTail {
		return 0, false
	}
	return quantile(xs, p/100), true
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method (Python's statistics.quantiles(xs, n=4) default), so
// the spreads this tool prints match what an external check computes. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order, with the same clamping and
		// integer arithmetic as CPython.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
