package app

import (
	"math"

	"graphpart/internal/engine"
	"graphpart/internal/graph"
)

// SSSP is Single-Source Shortest Paths (§3.3.4): the source starts at
// distance 0, everything else at +∞, and active vertices relax
// p(v) = min(p(u)+1) over their neighbors.
//
// The paper runs the *undirected* variant on PowerGraph/PowerLyra (§6.4.1
// notes this makes it non-natural); set Directed for the natural directed
// variant.
type SSSP struct {
	Source   graph.VertexID
	Directed bool
}

// Name implements engine.Program.
func (SSSP) Name() string { return "SSSP" }

// GatherDir implements engine.Program.
func (s SSSP) GatherDir() engine.Direction {
	if s.Directed {
		return engine.DirIn
	}
	return engine.DirBoth
}

// ScatterDir implements engine.Program.
func (s SSSP) ScatterDir() engine.Direction {
	if s.Directed {
		return engine.DirOut
	}
	return engine.DirBoth
}

// Init implements engine.Program. Every vertex (including the source)
// starts at +∞; the source's first Apply sets it to 0 and the resulting
// "changed" signal seeds the propagation.
func (s SSSP) Init(_ *graph.Graph, v graph.VertexID) float64 {
	return math.Inf(1)
}

// InitiallyActive implements engine.Program: only the source (§3.3.4).
func (s SSSP) InitiallyActive(_ *graph.Graph, v graph.VertexID) bool { return v == s.Source }

// Gather implements engine.Program: the nearest neighbor's distance + 1.
func (SSSP) Gather(_ *graph.Graph, _ graph.VertexID, _ engine.Direction, nbrs []graph.VertexID, vals []float64, acc float64, hasAcc bool) float64 {
	for _, u := range nbrs {
		if c := vals[u] + 1; hasAcc {
			acc = nearer(acc, c)
		} else {
			acc, hasAcc = c, true
		}
	}
	return acc
}

// nearer combines two distances: the builtin min, which inlines where
// math.Min is an out-of-line call (TestSSSPSumIsMathMin holds the two equal).
func nearer(a, b float64) float64 { return min(a, b) }

// Apply implements engine.Program.
func (s SSSP) Apply(_ *graph.Graph, v graph.VertexID, old float64, acc float64, hasAcc bool) (float64, bool) {
	if v == s.Source && math.IsInf(old, 1) {
		return 0, true
	}
	if hasAcc && acc < old {
		return acc, true
	}
	return old, false
}

// AccBytes implements engine.Program.
func (SSSP) AccBytes() int { return 8 }

// ValueBytes implements engine.Program.
func (SSSP) ValueBytes() int { return 8 }
