package oracle

import (
	"math"
	"slices"
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// The cases below are worked by hand, so the oracle answers to arithmetic
// rather than to the code it judges.

// near: got and want differ by at most a relative 1e-15 everywhere.
func near(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(g, w float64) bool { return math.Abs(g-w) <= 1e-15*math.Abs(w) })
}

func TestPageRankOnAKnownGraph(t *testing.T) {
	// 0 → 1, 0 → 2, 1 → 2; vertex 3 is isolated.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	// Iteration 1 from all ones: p0 = .15, p1 = .15 + .85·½ = .575, p2 = .15 + .85·(½ + 1) = 1.425.
	// Iteration 2: p1 = .15 + .85·(.15/2) = .21375, p2 = .15 + .85·(.075 + .575) = .7025.
	// With halting, vertices 0 and 3 stop after the first iteration
	// (nothing points at them), and the values reached agree.
	want := []float64{0.15, 0.21375, 0.7025, 0.15}
	for _, halting := range []bool{false, true} {
		if got := PageRank(4, edges, 0.85, 1e-3, 2, halting); !near(got, want) {
			t.Errorf("PageRank (halting %v) = %v, want %v", halting, got, want)
		}
	}
	// A vertex whose in-neighbours have settled keeps its value: after many
	// iterations both variants sit on the same fixed point.
	if a, b := PageRank(4, edges, 0.85, 1e-3, 50, true), PageRank(4, edges, 0.85, 1e-3, 50, false); !near(a, b) {
		t.Errorf("the halting variant %v drifts from the fixed point %v", a, b)
	}
}

func TestBFS(t *testing.T) {
	// A path 0 – 1 – 2 written in mixed directions, and a separate pair.
	edges := []graph.Edge{{Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	inf := math.Inf(1)
	for _, c := range []struct {
		src      graph.VertexID
		directed bool
		want     []float64
	}{
		{0, false, []float64{0, 1, 2, inf, inf}},
		{0, true, []float64{0, inf, inf, inf, inf}},
		{1, true, []float64{1, 0, 1, inf, inf}},
	} {
		if got := BFS(5, edges, c.src, c.directed); !slices.Equal(got, c.want) {
			t.Errorf("BFS from %d (directed %v) = %v, want %v", c.src, c.directed, got, c.want)
		}
	}
}

func TestWCC(t *testing.T) {
	// {1, 3, 4} through 3 → 1 → 4, {2, 5} through 5 → 2; 0 and 6 are alone.
	edges := []graph.Edge{{Src: 3, Dst: 1}, {Src: 1, Dst: 4}, {Src: 5, Dst: 2}}
	if got, want := WCC(7, edges), []graph.VertexID{0, 1, 2, 1, 1, 2, 6}; !slices.Equal(got, want) {
		t.Errorf("WCC = %v, want %v", got, want)
	}
}

func TestKCore(t *testing.T) {
	// A triangle 0-1-2 with a tail 0-3-4, and a 4-clique on 5..8; vertex 9
	// is isolated. At k = 2 the tail peels from its end: 4 (degree 1), then
	// 3, left with degree 1. The triangle is the 2-core and no 3-core; the
	// clique's vertices keep degree 3 throughout.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0}, {Src: 3, Dst: 4},
		{Src: 5, Dst: 6}, {Src: 5, Dst: 7}, {Src: 5, Dst: 8}, {Src: 7, Dst: 6}, {Src: 6, Dst: 8}, {Src: 8, Dst: 7},
	}
	for _, c := range []struct {
		kmin, kmax int
		want       []int
	}{
		{1, 3, []int{2, 2, 2, 1, 1, 3, 3, 3, 3, 0}},
		{2, 2, []int{2, 2, 2, 1, 1, 2, 2, 2, 2, 1}},
		{3, 4, []int{2, 2, 2, 2, 2, 3, 3, 3, 3, 2}},
	} {
		if got := KCore(10, edges, c.kmin, c.kmax); !slices.Equal(got, c.want) {
			t.Errorf("KCore(%d, %d) = %v, want %v", c.kmin, c.kmax, got, c.want)
		}
	}
	// A self loop counts twice toward its vertex's degree: alone it makes a
	// 2-core of one vertex.
	if got := KCore(1, []graph.Edge{{Src: 0, Dst: 0}}, 2, 3); !slices.Equal(got, []int{2}) {
		t.Errorf("KCore of a self loop = %v, want [2]", got)
	}
}

func TestProperColoring(t *testing.T) {
	// A triangle 0–1–2 with a self loop on 0.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 0}}
	for _, c := range []struct {
		colors []int32
		want   bool
	}{
		{[]int32{0, 1, 2}, true},  // the self loop does not count
		{[]int32{0, 1, 0}, false}, // 2 → 0 joins two 0s
		{[]int32{5, 5, 6}, false}, // 0 → 1 joins two 5s
	} {
		if got := ProperColoring(edges, c.colors); got != c.want {
			t.Errorf("ProperColoring(%v) = %v, want %v", c.colors, got, c.want)
		}
	}
}

func TestCutCountsImages(t *testing.T) {
	// Three edges on two partitions: vertex 1 is cut, 0 and 2 are not, 3 is
	// isolated. Images 4 over 3 placed vertices; edges 1 and 2 against a
	// mean of 1.5.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2}}
	c, err := NewCut(4, 2, edges, []int32{0, 1, 1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.RF() != 4.0/3 || c.Balance() != 2/1.5 || c.Total != 4 || c.Placed != 3 {
		t.Errorf("RF %v, balance %v, %d images on %d vertices; want 4/3, 4/3, 4 on 3", c.RF(), c.Balance(), c.Total, c.Placed)
	}
	if !slices.Equal(c.EdgeCount, []int64{1, 2}) || !slices.Equal(c.Images, []int64{2, 2}) || !slices.Equal(c.Replicas, []int{1, 2, 1, 0}) {
		t.Errorf("edges per part %v, images per part %v, replicas %v; want [1 2], [2 2], [1 2 1 0]", c.EdgeCount, c.Images, c.Replicas)
	}
	var holds []bool
	for v := range graph.VertexID(4) {
		holds = append(holds, c.Holds(v, 0), c.Holds(v, 1))
	}
	if want := []bool{true, false, true, true, false, true, false, false}; !slices.Equal(holds, want) {
		t.Errorf("Holds by vertex and part = %v, want %v", holds, want)
	}
	// One placement per edge, each on a partition that exists.
	for _, parts := range [][]int32{{0, 1}, {0, 1, 2}, {-1, 0, 1}} {
		if _, err := NewCut(4, 2, edges, parts, nil, 1); err == nil {
			t.Errorf("NewCut accepted placement %v of 3 edges on 2 partitions", parts)
		}
	}
}

func TestCutMasterRule(t *testing.T) {
	// Vertex 0 has images on 0 and 2, vertex 1 on 0, 1 and 2, vertex 2 on 1
	// only, vertex 3 on 2 only; vertex 4 has none.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 1}}
	parts := []int32{0, 1, 2, 2}
	const seed = 7
	hashed := func(v graph.VertexID, on ...int32) int32 {
		return on[hashing.Vertex(seed^0xa57e, v)%uint64(len(on))]
	}
	// Without a usable hint a one-image vertex is mastered there, whatever
	// the hash.
	unhinted := []int32{hashed(0, 0, 2), hashed(1, 0, 1, 2), 1, 2, -1}
	for _, c := range []struct {
		hint, want []int32
	}{
		{nil, unhinted},
		// A hint that holds an image wins.
		{[]int32{2, 0, 0, -1, 1}, []int32{2, 0, 1, 2, -1}},
		// A hint on a partition without an image, or out of range, falls
		// back to the hash, and a hint of the wrong length is no hint.
		{[]int32{1, 5, 2, 0, 0}, unhinted},
		{[]int32{2, 0}, unhinted},
	} {
		cut, err := NewCut(5, 3, edges, parts, c.hint, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cut.Masters, c.want) {
			t.Errorf("hint %v: masters %v, want %v", c.hint, cut.Masters, c.want)
		}
	}
}
