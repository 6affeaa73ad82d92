package app

import (
	"graphpart/internal/engine"
	"graphpart/internal/graph"
)

// WCC is Weakly Connected Components by label propagation (§3.3.2): every
// vertex starts with its own id and repeatedly adopts the minimum label
// among its neighbors (both directions — weak connectivity), propagating
// changes until a fixpoint. Not a natural application: it gathers and
// scatters in both directions.
type WCC struct{}

// Name implements engine.Program.
func (WCC) Name() string { return "WCC" }

// GatherDir implements engine.Program.
func (WCC) GatherDir() engine.Direction { return engine.DirBoth }

// ScatterDir implements engine.Program.
func (WCC) ScatterDir() engine.Direction { return engine.DirBoth }

// Init implements engine.Program.
func (WCC) Init(_ *graph.Graph, v graph.VertexID) uint32 { return uint32(v) }

// InitiallyActive implements engine.Program: all vertices start active and
// send out their labels (§3.3.2).
func (WCC) InitiallyActive(*graph.Graph, graph.VertexID) bool { return true }

// Gather implements engine.Program: the smallest label among the neighbors.
func (WCC) Gather(_ *graph.Graph, _ graph.VertexID, _ engine.Direction, nbrs []graph.VertexID, vals []uint32, acc uint32, hasAcc bool) uint32 {
	for _, u := range nbrs {
		if c := vals[u]; !hasAcc || c < acc {
			acc, hasAcc = c, true
		}
	}
	return acc
}

// Apply implements engine.Program.
func (WCC) Apply(_ *graph.Graph, _ graph.VertexID, old uint32, acc uint32, hasAcc bool) (uint32, bool) {
	if hasAcc && acc < old {
		return acc, true
	}
	return old, false
}

// AccBytes implements engine.Program.
func (WCC) AccBytes() int { return 4 }

// ValueBytes implements engine.Program.
func (WCC) ValueBytes() int { return 4 }
