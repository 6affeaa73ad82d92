package partition

import (
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// refGridAssign is gridAssigner.Assign as it stood before its division-free
// split — row and column by / and %, the corner picked by % over the
// distinct candidates, the fold by % mod — kept verbatim as the formula the
// fast assigner is compared against.
func refGridAssign(gridParts, side, mod int, seed uint64, e graph.Edge) int32 {
	hu := int(hashing.Vertex(seed, e.Src) % uint64(gridParts))
	hv := int(hashing.Vertex(seed, e.Dst) % uint64(gridParts))
	ru, cu := hu/side, hu%side
	rv, cv := hv/side, hv%side
	var cands [2]int
	n := 0
	cands[n] = ru*side + cv
	n++
	if c := rv*side + cu; c != cands[0] {
		cands[n] = c
		n++
	}
	pick := hashing.EdgeCanonical(seed^0x96d, e.Src, e.Dst) % uint64(n)
	return int32(cands[pick] % mod)
}

// refTwoDAssign is twoDAssigner.Assign as it stood before its fold became a
// conditional subtract, kept verbatim as the formula.
func refTwoDAssign(parts, side, seed uint64, e graph.Edge) int32 {
	col := hashing.Vertex(seed, e.Src) % side
	row := hashing.Vertex(seed^0x2d, e.Dst) % side
	return int32((col*side + row) % parts)
}

// gridRefEdges are the edges every part count is checked on: self loops,
// both directions of each pair, and ids up to the top of the id space.
func gridRefEdges() []graph.Edge {
	var edges []graph.Edge
	ids := []graph.VertexID{0, 1, 2, 3, 7, 100, 4095, 1 << 20, 1<<32 - 1}
	for i, u := range ids {
		for _, v := range ids[i:] {
			edges = append(edges, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
		}
	}
	for u := graph.VertexID(0); u < 24; u++ {
		edges = append(edges, graph.Edge{Src: u, Dst: 3*u + 1}, graph.Edge{Src: 3*u + 1, Dst: u})
	}
	return edges
}

// checkGridMatchesFormula compares Grid (when parts is a perfect square),
// ResilientGrid and 2D at parts against their formulas on edges.
func checkGridMatchesFormula(t *testing.T, parts int, seed uint64, edges []graph.Edge) {
	t.Helper()
	side := ceilSqrt(parts)
	refs := map[string]func(graph.Edge) int32{
		"ResilientGrid": func(e graph.Edge) int32 { return refGridAssign(side*side, side, parts, seed, e) },
		"2D":            func(e graph.Edge) int32 { return refTwoDAssign(uint64(parts), uint64(side), seed, e) },
	}
	if side*side == parts {
		refs["Grid"] = func(e graph.Edge) int32 { return refGridAssign(parts, side, parts, seed, e) }
	}
	for name, ref := range refs {
		asg, err := MustNew(name, Options{}).(StatelessStrategy).NewAssigner(parts, seed)
		if err != nil {
			t.Fatalf("%s at %d parts: %v", name, parts, err)
		}
		for _, e := range edges {
			if got, want := asg.Assign(e), ref(e); got != want {
				t.Fatalf("%s at %d parts, seed %d: edge %d→%d on %d, formula %d", name, parts, seed, e.Src, e.Dst, got, want)
			}
		}
	}
}

// TestGridMatchesFormula holds Grid, ResilientGrid and 2D to the formulas
// they replaced: ResilientGrid and 2D at every part count 1…1100 (most are
// not squares, where the fold is live), Grid at every perfect square up to
// 1024², each on self loops and both directions of every edge.
func TestGridMatchesFormula(t *testing.T) {
	edges := gridRefEdges()
	for parts := 1; parts <= 1100; parts++ {
		checkGridMatchesFormula(t, parts, uint64(parts), edges)
	}
	for side := 1; side <= 1024; side++ {
		checkGridMatchesFormula(t, side*side, 1, edges)
	}
}

// FuzzGridMatchesFormula drives the same comparison with fuzzer-chosen
// part counts (1…1100 for all three, and the square of 1…1024 for Grid),
// seeds and endpoints, each edge checked as given, reversed and as a self
// loop.
func FuzzGridMatchesFormula(f *testing.F) {
	f.Add(uint16(9), uint16(3), uint64(1), uint32(0), uint32(1))
	f.Add(uint16(10), uint16(4), uint64(1), uint32(5), uint32(5))
	f.Add(uint16(1100), uint16(1024), uint64(42), uint32(1<<32-1), uint32(7))
	f.Add(uint16(1), uint16(1), uint64(0), uint32(3), uint32(4))
	f.Fuzz(func(t *testing.T, parts, side uint16, seed uint64, u, v uint32) {
		src, dst := graph.VertexID(u), graph.VertexID(v)
		edges := []graph.Edge{{Src: src, Dst: dst}, {Src: dst, Dst: src}, {Src: src, Dst: src}}
		checkGridMatchesFormula(t, int(parts)%1100+1, seed, edges)
		s := int(side)%1024 + 1
		checkGridMatchesFormula(t, s*s, seed, edges)
	})
}
