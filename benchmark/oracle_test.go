package main

import (
	"math"
	"testing"

	"graphpart/internal/graph"
)

func TestRefPageRankOnAKnownGraph(t *testing.T) {
	// 0 → 1, 0 → 2, 1 → 2; vertex 3 is isolated.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	got := refPageRank(4, edges, 2, false)
	// Iteration 1 from all ones: p0 = .15, p1 = .15 + .85·½ = .575, p2 = .15 + .85·(½ + 1) = 1.425.
	// Iteration 2: p1 = .15 + .85·(.15/2) = .21375, p2 = .15 + .85·(.075 + .575) = .7025.
	want := []float64{0.15, 0.21375, 0.7025, 0.15}
	if err := maxRelErr(got, want); err > 1e-15 {
		t.Errorf("refPageRank = %v, want %v (rel. err %g)", got, want, err)
	}
	// With halting, vertex 3 and vertex 0 stop after the first iteration
	// (nothing points at them), and the values that are reached agree.
	halting := refPageRank(4, edges, 2, true)
	if err := maxRelErr(halting, want); err > 1e-15 {
		t.Errorf("refPageRank with halting = %v, want %v", halting, want)
	}
	// A vertex whose in-neighbours have settled keeps its value: after
	// many iterations both variants sit on the same fixed point.
	if err := maxRelErr(refPageRank(4, edges, 50, true), refPageRank(4, edges, 50, false)); err > 1e-12 {
		t.Errorf("the halting variant drifts from the fixed point by %g", err)
	}
}

func TestRefBFS(t *testing.T) {
	// A path 0 – 1 – 2 written in mixed directions, and a separate pair.
	edges := []graph.Edge{{Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	got := refBFS(5, edges, 0)
	want := []float64{0, 1, 2, math.Inf(1), math.Inf(1)}
	if maxRelErr(got, want) != 0 {
		t.Errorf("refBFS = %v, want %v", got, want)
	}
}

func TestMaxRelErr(t *testing.T) {
	inf := math.Inf(1)
	if maxRelErr([]float64{1, inf}, []float64{1, inf}) != 0 {
		t.Error("equal values, infinities included, must differ by 0")
	}
	if !math.IsInf(maxRelErr([]float64{1, 5}, []float64{1, inf}), 1) {
		t.Error("finite against infinite must be an infinite error")
	}
	if !math.IsInf(maxRelErr([]float64{1}, []float64{1, 2}), 1) {
		t.Error("different lengths must be an infinite error")
	}
	if got := maxRelErr([]float64{2, 11}, []float64{2, 10}); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("maxRelErr = %v, want 0.1", got)
	}
}

func TestRefQuality(t *testing.T) {
	// Three edges on two partitions: vertex 1 is cut, the others are not.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2}}
	q := refQuality(4, 2, edges, []int32{0, 1, 1})
	if q.RF != 4.0/3 || q.Balance != 2/1.5 {
		t.Errorf("refQuality = %+v, want RF 4/3 and balance 4/3", q)
	}
	if !sameQuality(q, quality{4.0 / 3, 4.0 / 3}) || sameQuality(q, quality{1.34, 4.0 / 3}) {
		t.Error("sameQuality must allow rounding and nothing more")
	}
}

func TestPlacementSum(t *testing.T) {
	a := []int32{0, 1, 2, 3}
	if placementSum(a) != placementSum([]int32{0, 1, 2, 3}) {
		t.Error("equal placements must have equal sums")
	}
	for _, b := range [][]int32{{1, 0, 2, 3}, {0, 1, 2}, {0, 1, 2, 4}, {0, 1, 2, 3, 0}} {
		if placementSum(a) == placementSum(b) {
			t.Errorf("placements %v and %v have the same sum", a, b)
		}
	}
}
