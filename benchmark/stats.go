package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest is the smallest sample.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// iqrFrac is the interquartile range as a share of the median — the
// spread figure printed beside every timing (0 when the median is 0).
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. Latency
// tails use it so that a reported p99 is always a latency that occurred.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// relDiff is |a−b| as a share of the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Max(math.Abs(a), math.Abs(b))
	if d == 0 {
		return 0
	}
	return math.Abs(a-b) / d
}
