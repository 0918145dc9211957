package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile of xs, interpolating linearly between
// the closest ranks (numpy's default estimator), so p = 0.5 is the
// ordinary median. It returns NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailP is the highest percentile that still has ten samples beyond it,
// 1 − 10/n. A run too short to have one reports its median instead, so
// the tail never reads below the median.
func tailP(n int) float64 {
	return math.Max(0.5, 1-10/float64(n))
}

// quartiles returns Q1, the median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), the rule by which run-to-run spreads are judged.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / q[1]
}
