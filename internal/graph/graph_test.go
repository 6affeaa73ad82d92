package graph

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func smallGraph() *Graph {
	// 0→1, 0→2, 1→2, 2→3, 3→0
	return FromEdges("small", []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0},
	})
}

func TestFromEdgesCounts(t *testing.T) {
	g := smallGraph()
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 5 {
		t.Fatalf("NumEdges = %d, want 5", got)
	}
}

func TestDegrees(t *testing.T) {
	g := smallGraph()
	tests := []struct {
		v       VertexID
		out, in int
	}{
		{0, 2, 1},
		{1, 1, 1},
		{2, 1, 2},
		{3, 1, 1},
	}
	for _, tc := range tests {
		if got := g.OutDegree(tc.v); got != tc.out {
			t.Errorf("OutDegree(%d) = %d, want %d", tc.v, got, tc.out)
		}
		if got := g.InDegree(tc.v); got != tc.in {
			t.Errorf("InDegree(%d) = %d, want %d", tc.v, got, tc.in)
		}
		if got := g.Degree(tc.v); got != tc.out+tc.in {
			t.Errorf("Degree(%d) = %d, want %d", tc.v, got, tc.out+tc.in)
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := smallGraph()
	out := g.OutNeighbors(0)
	if len(out) != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want 2 entries", out)
	}
	seen := map[VertexID]bool{}
	for _, u := range out {
		seen[u] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("OutNeighbors(0) = %v, want {1,2}", out)
	}
	in := g.InNeighbors(2)
	if len(in) != 2 {
		t.Fatalf("InNeighbors(2) = %v, want 2 entries", in)
	}
}

func TestEdgeIDsParallelToNeighbors(t *testing.T) {
	g := smallGraph()
	in, out := g.Adjacency()
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		nbrs, eids := out.List(v)
		if !slices.Equal(nbrs, g.OutNeighbors(v)) || len(nbrs) != len(eids) || len(nbrs) != g.OutDegree(v) {
			t.Fatalf("v=%d: out list %v / %v, OutNeighbors %v, degree %d", v, nbrs, eids, g.OutNeighbors(v), g.OutDegree(v))
		}
		for i := range nbrs {
			e := g.Edges[eids[i]]
			if e.Src != v || e.Dst != nbrs[i] {
				t.Errorf("v=%d edge id %d = %v, want src=%d dst=%d", v, eids[i], e, v, nbrs[i])
			}
		}
		inbrs, ieids := in.List(v)
		if !slices.Equal(inbrs, g.InNeighbors(v)) || len(inbrs) != len(ieids) || len(inbrs) != g.InDegree(v) {
			t.Fatalf("v=%d: in list %v / %v, InNeighbors %v, degree %d", v, inbrs, ieids, g.InNeighbors(v), g.InDegree(v))
		}
		for i := range inbrs {
			e := g.Edges[ieids[i]]
			if e.Dst != v || e.Src != inbrs[i] {
				t.Errorf("v=%d in-edge id %d = %v, want src=%d dst=%d", v, ieids[i], e, inbrs[i], v)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges("empty", nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if got := g.AvgDegree(); got != 0 {
		t.Errorf("AvgDegree = %v, want 0", got)
	}
	if got := g.MaxDegree(); got != 0 {
		t.Errorf("MaxDegree = %v, want 0", got)
	}
}

func TestMaxAndAvgDegree(t *testing.T) {
	g := smallGraph()
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	want := 2.0 * 5 / 4
	if got := g.AvgDegree(); got != want {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
	if got := g.MaxInDegree(); got != 2 {
		t.Errorf("MaxInDegree = %d, want 2", got)
	}
}

func TestInDegreeHistogram(t *testing.T) {
	g := smallGraph()
	h := g.InDegreeHistogram()
	if h[1] != 3 || h[2] != 1 {
		t.Errorf("histogram = %v, want {1:3, 2:1}", h)
	}
}

func TestSortedHistogramSkipsZero(t *testing.T) {
	degs, counts := sortedHistogram(map[int]int{0: 5, 3: 2, 1: 7})
	if len(degs) != 2 || degs[0] != 1 || degs[1] != 3 {
		t.Fatalf("degrees = %v, want [1 3]", degs)
	}
	if counts[0] != 7 || counts[1] != 2 {
		t.Fatalf("counts = %v, want [7 2]", counts)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% also comment
0 1
1 2

2 0 extra-field-ok
`
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0", "a b", "0 b"} {
		if _, _, err := streamEdgeList("bad", strings.NewReader(bad), 0, func(int64, []Edge) error { return nil }); err == nil {
			t.Errorf("streamEdgeList(%q): want error, got nil", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := smallGraph()
	path := filepath.Join(t.TempDir(), "rt.txt")
	if err := SaveEdgeList(g, path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip: got %v, want %v", g2, g)
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d: got %v, want %v", i, g2.Edges[i], g.Edges[i])
		}
	}
}

func TestDegreeSumsProperty(t *testing.T) {
	// For any edge list, sum of out-degrees == sum of in-degrees == |E|,
	// and CSR adjacency sizes match degrees.
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{VertexID(raw[i] % 512), VertexID(raw[i+1] % 512)})
		}
		g := FromEdges("prop", edges)
		sumOut, sumIn := 0, 0
		for v := 0; v < g.NumVertices(); v++ {
			vid := VertexID(v)
			sumOut += g.OutDegree(vid)
			sumIn += g.InDegree(vid)
			if len(g.OutNeighbors(vid)) != g.OutDegree(vid) {
				return false
			}
			if len(g.InNeighbors(vid)) != g.InDegree(vid) {
				return false
			}
		}
		return sumOut == g.NumEdges() && sumIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
