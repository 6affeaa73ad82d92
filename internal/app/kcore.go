package app

import (
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// VertexAlive / VertexRemoved are the two states of a KCore vertex value.
const (
	VertexAlive   int32 = 0
	VertexRemoved int32 = 1
)

// KCore is one peeling pass of k-core decomposition (§3.3.3): vertices with
// (remaining) degree < K are repeatedly removed until a fixpoint; survivors
// form the k-core. A vertex's remaining degree is its original degree minus
// its removed neighbors, which the gather stage counts.
type KCore struct {
	K int
	// InitRemoved carries the removals of the previous (smaller-k) pass so
	// that decomposition peels incrementally, as PowerGraph's kmin..kmax
	// application does. Nil means no prior removals.
	InitRemoved []bool
}

// Name implements engine.Program.
func (KCore) Name() string { return "K-Core" }

// GatherDir implements engine.Program (degree counts both directions).
func (KCore) GatherDir() engine.Direction { return engine.DirBoth }

// ScatterDir implements engine.Program.
func (KCore) ScatterDir() engine.Direction { return engine.DirBoth }

// Init implements engine.Program.
func (kc KCore) Init(_ *graph.Graph, v graph.VertexID) int32 {
	if kc.InitRemoved != nil && kc.InitRemoved[v] {
		return VertexRemoved
	}
	return VertexAlive
}

// InitiallyActive implements engine.Program: every still-alive vertex
// checks its degree in the first superstep.
func (kc KCore) InitiallyActive(_ *graph.Graph, v graph.VertexID) bool {
	return kc.InitRemoved == nil || !kc.InitRemoved[v]
}

// Gather implements engine.Program: the number of removed neighbors, counted
// up from the zero an empty accumulator is.
func (KCore) Gather(_ *graph.Graph, _ graph.VertexID, _ engine.Direction, nbrs []graph.VertexID, vals []int32, acc int32, _ bool) int32 {
	for _, u := range nbrs {
		if vals[u] == VertexRemoved {
			acc++
		}
	}
	return acc
}

// Apply implements engine.Program: remove when remaining degree < K.
func (kc KCore) Apply(g *graph.Graph, v graph.VertexID, old int32, acc int32, hasAcc bool) (int32, bool) {
	if old == VertexRemoved {
		return old, false
	}
	removedNbrs := int32(0)
	if hasAcc {
		removedNbrs = acc
	}
	if g.Degree(v)-int(removedNbrs) < kc.K {
		return VertexRemoved, true
	}
	return old, false
}

// StayActive implements engine.Reactivator: every still-alive vertex
// re-checks its remaining degree each round, so a peeling pass is a
// bulk-iterative computation over the whole remaining subgraph — the
// behaviour that makes K-core the paper's long-running, compute-heavy job
// (Table 5.1).
func (KCore) StayActive(_ *graph.Graph, _ graph.VertexID, val int32) bool {
	return val == VertexAlive
}

// AccBytes implements engine.Program.
func (KCore) AccBytes() int { return 4 }

// ValueBytes implements engine.Program (a removal flag).
func (KCore) ValueBytes() int { return 1 }

// KCoreDecomposition runs the paper's k-core application: find the k-cores
// for every k in [kmin, kmax] (§5.3 uses 10..20), peeling incrementally.
// It returns the per-vertex core numbers capped at kmax (coreNum[v] = the
// largest k ≤ kmax such that v is in the k-core, or kmin−1 if v is not even
// in the kmin-core) and the aggregate engine statistics over all passes.
func KCoreDecomposition(mode engine.Mode, kmin, kmax int, a *partition.Assignment, cfg cluster.Config, model cluster.CostModel, opts engine.Options) ([]int, engine.Stats, error) {
	n := a.G.NumVertices()
	coreNum := make([]int, n)
	for v := range coreNum {
		coreNum[v] = kmin - 1
	}
	var removed []bool
	agg := engine.Stats{App: "K-Core", Strategy: a.Strategy, Mode: mode, Converged: true}
	for k := kmin; k <= kmax; k++ {
		out, err := engine.Run[int32, int32](mode, KCore{K: k, InitRemoved: removed}, a, cfg, model, opts)
		if err != nil {
			return nil, agg, err
		}
		if removed == nil {
			removed = make([]bool, n)
		}
		for v, val := range out.Values {
			if val == VertexRemoved {
				removed[v] = true
			} else {
				coreNum[v] = k
			}
		}
		agg.Supersteps += out.Stats.Supersteps
		agg.ComputeSeconds += out.Stats.ComputeSeconds
		agg.AvgNetInGB += out.Stats.AvgNetInGB
		agg.EdgesProcessed += out.Stats.EdgesProcessed
		if out.Stats.PeakMemGB > agg.PeakMemGB {
			agg.PeakMemGB = out.Stats.PeakMemGB
		}
		agg.Converged = agg.Converged && out.Stats.Converged
		if agg.CPUUtil == nil {
			agg.CPUUtil = make([]float64, len(out.Stats.CPUUtil))
		}
		for i, u := range out.Stats.CPUUtil {
			agg.CPUUtil[i] += u * out.Stats.ComputeSeconds
		}
		agg.SuperstepSeconds = append(agg.SuperstepSeconds, out.Stats.SuperstepSeconds...)
	}
	if agg.ComputeSeconds > 0 {
		for i := range agg.CPUUtil {
			agg.CPUUtil[i] /= agg.ComputeSeconds
		}
	}
	return coreNum, agg, nil
}
