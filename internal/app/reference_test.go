package app

import (
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

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
