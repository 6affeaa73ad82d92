package app

import (
	"math"

	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// Sequential reference implementations used to validate the engines.

// refPageRank runs synchronous PageRank for iters iterations (or to
// convergence when iters == 0) with damping d.
func refPageRank(g *graph.Graph, d float64, tol float64, iters int) []float64 {
	n := g.NumVertices()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1
	}
	for it := 0; iters == 0 || it < iters; it++ {
		changed := false
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				sum += pr[u] / float64(g.OutDegree(u))
			}
			next[v] = (1 - d) + d*sum
			if math.Abs(next[v]-pr[v]) > tol {
				changed = true
			}
		}
		pr, next = next, pr
		if iters == 0 && !changed {
			break
		}
	}
	return pr
}

// refWCC computes weakly-connected-component labels (min vertex id per
// component).
func refWCC(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(v)
	}
	for {
		changed := false
		for _, e := range g.Edges {
			if label[e.Src] < label[e.Dst] {
				label[e.Dst] = label[e.Src]
				changed = true
			} else if label[e.Dst] < label[e.Src] {
				label[e.Src] = label[e.Dst]
				changed = true
			}
		}
		if !changed {
			return label
		}
	}
}

// refBFS computes unweighted shortest-path distances from src, treating
// edges as undirected when directed is false.
func refBFS(g *graph.Graph, src graph.VertexID, directed bool) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= n {
		return dist
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		relax := func(u graph.VertexID) {
			if dist[v]+1 < dist[u] {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
		for _, u := range g.OutNeighbors(v) {
			relax(u)
		}
		if !directed {
			for _, u := range g.InNeighbors(v) {
				relax(u)
			}
		}
	}
	return dist
}

// refKCoreNumbers peels the graph and returns each vertex's core number
// capped at kmax; vertices below the kmin-core get kmin−1.
func refKCoreNumbers(g *graph.Graph, kmin, kmax int) []int {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.VertexID(v))
	}
	removed := make([]bool, n)
	core := make([]int, n)
	for v := range core {
		core[v] = kmin - 1
	}
	for k := kmin; k <= kmax; k++ {
		for {
			any := false
			for v := 0; v < n; v++ {
				if removed[v] || deg[v] >= k {
					continue
				}
				removed[v] = true
				any = true
				for _, u := range g.OutNeighbors(graph.VertexID(v)) {
					deg[u]--
				}
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					deg[u]--
				}
			}
			if !any {
				break
			}
		}
		for v := 0; v < n; v++ {
			if !removed[v] {
				core[v] = k
			}
		}
	}
	return core
}

// The per-edge definitions of the five programs, as engine.Program had them
// before a Gather call folded a whole adjacency list: the contribution of one
// gather-direction edge (src, dst) to target's accumulator, and the sum that
// combines two. They are the reference the per-list Gathers are folded
// against (TestGatherFoldsLikeThePerEdgeDefinition).
type edgeRef[V, A any] struct {
	gather func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal V, target graph.VertexID) A
	sum    func(a, b A) A
}

// fold is the gather scan engine.Execute ran per edge: the first contribution
// initialises the accumulator, every other one is summed into it.
func (r edgeRef[V, A]) fold(g *graph.Graph, v graph.VertexID, dir engine.Direction, nbrs []graph.VertexID, vals []V, acc A, hasAcc bool) A {
	for _, u := range nbrs {
		var c A
		if dir == engine.DirIn {
			c = r.gather(g, u, v, vals[u], vals[v], v)
		} else {
			c = r.gather(g, v, u, vals[v], vals[u], v)
		}
		if hasAcc {
			acc = r.sum(acc, c)
		} else {
			acc, hasAcc = c, true
		}
	}
	return acc
}

var refPageRankEdge = edgeRef[float64, float64]{
	gather: func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal float64, target graph.VertexID) float64 {
		od := g.OutDegree(src)
		if od == 0 {
			return 0
		}
		return srcVal / float64(od)
	},
	sum: func(a, b float64) float64 { return a + b },
}

var refSSSPEdge = edgeRef[float64, float64]{
	gather: func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal float64, target graph.VertexID) float64 {
		if target == dst {
			return srcVal + 1
		}
		return dstVal + 1
	},
	sum: func(a, b float64) float64 { return min(a, b) },
}

var refWCCEdge = edgeRef[uint32, uint32]{
	gather: func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal uint32, target graph.VertexID) uint32 {
		if target == dst {
			return srcVal
		}
		return dstVal
	},
	sum: func(a, b uint32) uint32 {
		if a < b {
			return a
		}
		return b
	},
}

var refKCoreEdge = edgeRef[int32, int32]{
	gather: func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal int32, target graph.VertexID) int32 {
		nbrVal := srcVal
		if target == src {
			nbrVal = dstVal
		}
		if nbrVal == VertexRemoved {
			return 1
		}
		return 0
	},
	sum: func(a, b int32) int32 { return a + b },
}

func refColoringEdge(c Coloring) edgeRef[int32, ColorSet] {
	higherPriority := func(a, b graph.VertexID) bool {
		ha, hb := hashing.Vertex(c.Seed^0xc0109, a), hashing.Vertex(c.Seed^0xc0109, b)
		if ha != hb {
			return ha > hb
		}
		return a > b
	}
	return edgeRef[int32, ColorSet]{
		gather: func(g *graph.Graph, src, dst graph.VertexID, srcVal, dstVal int32, target graph.VertexID) ColorSet {
			nbr, nbrVal := src, srcVal
			if target == src {
				nbr, nbrVal = dst, dstVal
			}
			if higherPriority(nbr, target) {
				return ColorSet(nil).Add(nbrVal)
			}
			return nil
		},
		sum: func(a, b ColorSet) ColorSet { return a.Union(b) },
	}
}

// Union returns the union of two sets in a set of its own: two allocations
// per gather edge, which is why Coloring.Gather ORs into one accumulator.
func (s ColorSet) Union(o ColorSet) ColorSet {
	if len(o) > len(s) {
		s, o = o, s
	}
	out := make(ColorSet, len(s))
	copy(out, s)
	for i := range o {
		out[i] |= o[i]
	}
	return out
}
