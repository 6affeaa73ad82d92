// Package graph provides the in-memory graph representation shared by all
// partitioners, engines, and experiments in this repository.
//
// A Graph is primarily an edge list (the form in which the paper's datasets
// are stored and streamed into partitioners), plus lazily-built CSR-style
// adjacency indexes used by the computation engines.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. The paper's largest graph (UK-web) has 105M
// vertices; uint32 covers every dataset used here and halves index memory.
type VertexID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Graph is an immutable directed graph. Build one with FromEdges or load one
// with LoadFile, and do not mutate Edges afterwards; the adjacency indexes
// are built once.
type Graph struct {
	Name  string
	Edges []Edge

	numVertices int

	// CSR indexes, built lazily by buildCSR.
	outIndex []int32 // offset into outAdj per vertex (len = numVertices+1)
	outAdj   []VertexID
	outEdge  []int32 // edge id parallel to outAdj
	inIndex  []int32
	inAdj    []VertexID
	inEdge   []int32

	outDeg []int32
	inDeg  []int32

	// mmap pins the memory mapping some of the slices above alias when the
	// graph was loaded through the zero-copy path (csr.go); the mapping is
	// released by finalizer once the graph is unreachable.
	mmap *mmapRef
}

// FromEdges builds a Graph from an edge list. The vertex set is the dense
// range [0, maxID]; isolated IDs below the max are retained as degree-0
// vertices (matching how edge-list datasets are loaded by the systems in
// the paper).
func FromEdges(name string, edges []Edge) *Graph {
	var maxID VertexID
	for _, e := range edges {
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	n := 0
	if len(edges) > 0 {
		n = int(maxID) + 1
	}
	g := &Graph{Name: name, Edges: edges, numVertices: n}
	g.buildDegrees()
	return g
}

// NumVertices returns the number of vertices (dense ID space).
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int { return int(g.outDeg[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int { return int(g.inDeg[v]) }

// Degree returns the total degree (in + out) of v.
func (g *Graph) Degree(v VertexID) int { return int(g.outDeg[v] + g.inDeg[v]) }

func (g *Graph) buildDegrees() {
	g.outDeg = make([]int32, g.numVertices)
	g.inDeg = make([]int32, g.numVertices)
	for _, e := range g.Edges {
		g.outDeg[e.Src]++
		g.inDeg[e.Dst]++
	}
}

// buildCSR constructs the adjacency indexes. Called lazily by the accessor
// methods; engines call EnsureCSR once up front.
func (g *Graph) buildCSR() {
	if g.outIndex != nil {
		return
	}
	n := g.numVertices
	m := len(g.Edges)

	outIdx := make([]int32, n+1)
	inIdx := make([]int32, n+1)
	for _, e := range g.Edges {
		outIdx[e.Src+1]++
		inIdx[e.Dst+1]++
	}
	for i := 0; i < n; i++ {
		outIdx[i+1] += outIdx[i]
		inIdx[i+1] += inIdx[i]
	}
	outAdj := make([]VertexID, m)
	outEdge := make([]int32, m)
	inAdj := make([]VertexID, m)
	inEdge := make([]int32, m)
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for i, e := range g.Edges {
		p := outIdx[e.Src] + outPos[e.Src]
		outAdj[p] = e.Dst
		outEdge[p] = int32(i)
		outPos[e.Src]++
		q := inIdx[e.Dst] + inPos[e.Dst]
		inAdj[q] = e.Src
		inEdge[q] = int32(i)
		inPos[e.Dst]++
	}
	g.outIndex, g.outAdj, g.outEdge = outIdx, outAdj, outEdge
	g.inIndex, g.inAdj, g.inEdge = inIdx, inAdj, inEdge
}

// EnsureCSR builds the adjacency indexes if they are not built yet.
func (g *Graph) EnsureCSR() { g.buildCSR() }

// OutNeighbors returns the out-neighbors of v (shared slice; do not modify).
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	g.buildCSR()
	return g.outAdj[g.outIndex[v]:g.outIndex[v+1]]
}

// InNeighbors returns the in-neighbors of v (shared slice; do not modify).
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	g.buildCSR()
	return g.inAdj[g.inIndex[v]:g.inIndex[v+1]]
}

// Adjacency is one direction of the graph's CSR: v's neighbors are
// Neighbors[Index[v]:Index[v+1]], and EdgeIDs, parallel to Neighbors, names
// the edge behind each. The slices are the graph's own; do not modify. A loop
// over many vertices takes the view once and slices it per vertex, where
// OutNeighbors and InNeighbors re-check the build on every call.
type Adjacency struct {
	Index     []int32
	Neighbors []VertexID
	EdgeIDs   []int32
}

// List returns v's neighbors and, parallel to them, their edge ids.
func (a Adjacency) List(v VertexID) ([]VertexID, []int32) {
	lo, hi := a.Index[v], a.Index[v+1]
	return a.Neighbors[lo:hi], a.EdgeIDs[lo:hi]
}

// Adjacency returns the in- and out-direction views of the graph's CSR,
// building it if it is not built yet.
func (g *Graph) Adjacency() (in, out Adjacency) {
	g.buildCSR()
	return Adjacency{g.inIndex, g.inAdj, g.inEdge}, Adjacency{g.outIndex, g.outAdj, g.outEdge}
}

// MaxDegree returns the maximum total degree over all vertices.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.numVertices; v++ {
		if d := int(g.outDeg[v] + g.inDeg[v]); d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the maximum in-degree over all vertices.
func (g *Graph) MaxInDegree() int {
	max := 0
	for _, d := range g.inDeg {
		if int(d) > max {
			max = int(d)
		}
	}
	return max
}

// AvgDegree returns the average total degree, 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if g.numVertices == 0 {
		return 0
	}
	return 2 * float64(len(g.Edges)) / float64(g.numVertices)
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{|V|=%d |E|=%d}", g.Name, g.numVertices, len(g.Edges))
}

// InDegreeHistogram returns a map from in-degree d to the number of vertices
// with in-degree d (the quantity plotted in the paper's Figure 5.8). The
// zero-degree bucket is included.
func (g *Graph) InDegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, d := range g.inDeg {
		h[int(d)]++
	}
	return h
}

// DegreeHistogram returns a map from total degree to vertex count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.numVertices; v++ {
		h[int(g.outDeg[v]+g.inDeg[v])]++
	}
	return h
}

// sortedHistogram flattens a histogram map into (degree, count) pairs sorted
// by degree, skipping degree 0 (which cannot be plotted on log axes).
func sortedHistogram(h map[int]int) (degrees []int, counts []int) {
	for d := range h {
		if d > 0 {
			degrees = append(degrees, d)
		}
	}
	sort.Ints(degrees)
	counts = make([]int, len(degrees))
	for i, d := range degrees {
		counts[i] = h[d]
	}
	return degrees, counts
}
