package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := fastest(xs); got != 1 {
		t.Errorf("fastest = %v, want 1", got)
	}
	if got := iqrFrac(xs); got != (7.0-3.0)/5.0 {
		t.Errorf("iqrFrac = %v, want 0.8", got)
	}
	if quantile(nil, 0.5) != 0 || percentile(nil, 99) != 0 || iqrFrac(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1
	}
	for _, tc := range []struct {
		p, want float64
	}{{50, 100}, {99, 198}, {99.5, 199}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(0, 0) != 0 || relDiff(1, 1) != 0 {
		t.Error("equal values must differ by 0")
	}
	if got := relDiff(90, 100); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("relDiff(90, 100) = %v, want 0.1", got)
	}
	if relDiff(100, 90) != relDiff(90, 100) {
		t.Error("relDiff must be symmetric")
	}
}
