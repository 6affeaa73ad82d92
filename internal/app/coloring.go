package app

import (
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// ColorSet is the gather accumulator for Coloring: a grow-as-needed bitset
// of colors used by (higher-priority) neighbors.
type ColorSet []uint64

// Add returns the set with color c included.
func (s ColorSet) Add(c int32) ColorSet {
	w := int(c) / 64
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << uint(c%64)
	return s
}

// Has reports whether color c is in the set.
func (s ColorSet) Has(c int32) bool {
	w := int(c) / 64
	return w < len(s) && s[w]&(1<<uint(c%64)) != 0
}

// smallestFree returns the smallest non-negative color not in the set.
func (s ColorSet) smallestFree() int32 {
	for c := int32(0); ; c++ {
		if !s.Has(c) {
			return c
		}
	}
}

// Coloring is Simple Coloring (§3.3.5): assign every vertex the smallest
// color different from all neighbors'. The paper runs this on the
// *asynchronous* engine, which it observes sometimes hangs (Oblivious) or
// fails (HDRF) (§5.4.1). Our deterministic substitution uses
// Jones–Plassmann-style priorities: a vertex only recolors against
// higher-priority neighbors (priority = hash of the id), which converges
// without the async engine's nondeterminism. Gathers and scatters both
// directions — not a natural application.
type Coloring struct {
	// Seed salts the priority hash (0 is fine).
	Seed uint64
}

// priority is v's rank key: a vertex outranks another on a larger hash, hash
// ties broken by id so that no two distinct vertices ever compare equal.
func (c Coloring) priority(v graph.VertexID) uint64 { return hashing.Vertex(c.Seed^0xc0109, v) }

// Name implements engine.Program.
func (Coloring) Name() string { return "Coloring" }

// GatherDir implements engine.Program.
func (Coloring) GatherDir() engine.Direction { return engine.DirBoth }

// ScatterDir implements engine.Program.
func (Coloring) ScatterDir() engine.Direction { return engine.DirBoth }

// Init implements engine.Program: everyone starts with color 0 (§3.3.5,
// "all the vertices initially start with the same color").
func (Coloring) Init(*graph.Graph, graph.VertexID) int32 { return 0 }

// InitiallyActive implements engine.Program.
func (Coloring) InitiallyActive(*graph.Graph, graph.VertexID) bool { return true }

// Gather implements engine.Program: the colors of v's higher-priority
// neighbors, ORed into the one set acc (which it may grow and returns), v's
// own priority hashed once per list.
func (c Coloring) Gather(_ *graph.Graph, v graph.VertexID, _ engine.Direction, nbrs []graph.VertexID, vals []int32, acc ColorSet, _ bool) ColorSet {
	hv := c.priority(v)
	for _, u := range nbrs {
		if hu := c.priority(u); hu > hv || hu == hv && u > v {
			acc = acc.Add(vals[u])
		}
	}
	return acc
}

// Apply implements engine.Program: take the smallest color unused by
// higher-priority neighbors.
func (c Coloring) Apply(_ *graph.Graph, v graph.VertexID, old int32, acc ColorSet, hasAcc bool) (int32, bool) {
	var want int32
	if hasAcc {
		want = acc.smallestFree()
	}
	return want, want != old
}

// AccBytes implements engine.Program (a small color bitmap).
func (Coloring) AccBytes() int { return 8 }

// ValueBytes implements engine.Program.
func (Coloring) ValueBytes() int { return 4 }
