package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its default
// exclusive method. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		cut[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut[0], cut[1], cut[2], true
}

// percentile returns the p-th quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi > len(s)-1 {
		hi = len(s) - 1
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten of n samples beyond it; 0 when even the median
// has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.9, 0.75, 0.5} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
