// Package app implements the paper's five benchmark applications (§3.3) as
// GAS vertex programs: PageRank, Weakly Connected Components, K-core
// decomposition, Single-Source Shortest Paths, and Simple Coloring.
package app

import (
	"math"

	"graphpart/internal/engine"
	"graphpart/internal/graph"
)

// DefaultDamping is the PageRank dampening factor d (§3.3.1).
const DefaultDamping = 0.85

// DefaultTolerance is the per-vertex convergence tolerance used by the
// convergent "PageRank(C)" configuration.
const DefaultTolerance = 1e-3

// PageRank is §3.3.1: p(v) = (1−d) + d·Σ p(u)/|No(u)| over in-neighbors.
// It is a *natural* application (gathers In, scatters Out), the case
// PowerLyra's hybrid engine optimizes (§6.1).
type PageRank struct {
	Tolerance float64 // 0 means DefaultTolerance
}

func (p PageRank) tolerance() float64 {
	if p.Tolerance == 0 {
		return DefaultTolerance
	}
	return p.Tolerance
}

// Name implements engine.Program.
func (PageRank) Name() string { return "PageRank" }

// GatherDir implements engine.Program.
func (PageRank) GatherDir() engine.Direction { return engine.DirIn }

// ScatterDir implements engine.Program.
func (PageRank) ScatterDir() engine.Direction { return engine.DirOut }

// Init implements engine.Program.
func (PageRank) Init(*graph.Graph, graph.VertexID) float64 { return 1 }

// InitiallyActive implements engine.Program.
func (PageRank) InitiallyActive(*graph.Graph, graph.VertexID) bool { return true }

// Gather implements engine.Program: each edge contributes p(src)/|No(src)|,
// summed. The source of an in-edge (u, v) is the neighbor; along an out-edge
// — a direction PageRank never gathers — it is v itself.
func (PageRank) Gather(g *graph.Graph, v graph.VertexID, dir engine.Direction, nbrs []graph.VertexID, vals []float64, acc float64, hasAcc bool) float64 {
	for _, u := range nbrs {
		src := u
		if dir == engine.DirOut {
			src = v
		}
		c := 0.0
		if od := g.OutDegree(src); od != 0 {
			c = vals[src] / float64(od)
		}
		if hasAcc {
			acc += c
		} else {
			acc, hasAcc = c, true
		}
	}
	return acc
}

// Apply implements engine.Program.
func (p PageRank) Apply(g *graph.Graph, v graph.VertexID, old float64, acc float64, hasAcc bool) (float64, bool) {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	// d is a float64 variable, not the untyped constant: 1-d must round
	// the way float64 arithmetic does, or every rank moves in its last bit.
	d := DefaultDamping
	next := (1 - d) + d*sum
	return next, math.Abs(next-old) > p.tolerance()
}

// AccBytes implements engine.Program (one float64 partial sum).
func (PageRank) AccBytes() int { return 8 }

// ValueBytes implements engine.Program.
func (PageRank) ValueBytes() int { return 8 }
