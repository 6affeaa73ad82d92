package app

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/oracle"
	"graphpart/internal/partition"
)

// randomGraphFrom turns fuzz bytes into a small graph.
func randomGraphFrom(raw []uint16) *graph.Graph {
	edges := make([]graph.Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		s, d := graph.VertexID(raw[i]%200), graph.VertexID(raw[i+1]%200)
		if s == d {
			continue
		}
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	return graph.FromEdges("fuzz", edges)
}

func runOn(g *graph.Graph) (*partition.Assignment, error) {
	return partition.Partition(g, partition.MustNew("Random", partition.Options{}), 5, 1)
}

var propCluster = cluster.Config{Machines: 5, PartsPerMachine: 1}

// TestWCCLabelsArePartitionProperty: for any graph, WCC labels form a valid
// partition — every edge connects same-labeled endpoints, and each label
// equals the minimum vertex id carrying it — which is the oracle's labelling.
func TestWCCLabelsArePartitionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, WCC{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		return err == nil && out.Stats.Converged && slices.Equal(out.Values, oracle.WCC(g.NumVertices(), g.Edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPTriangleInequalityProperty: for any graph, converged distances
// satisfy |d(u) − d(v)| ≤ 1 across every (undirected) edge, and d is 0 only
// at the source: they are the oracle's BFS hop counts.
func TestSSSPTriangleInequalityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		src := g.Edges[0].Src
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, SSSP{Source: src}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		return err == nil && out.Stats.Converged && slices.Equal(out.Values, oracle.BFS(g.NumVertices(), g.Edges, src, false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestColoringProperProperty: the coloring program produces a proper
// coloring on any graph.
func TestColoringProperProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[int32, ColorSet](engine.ModePowerGraph, Coloring{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil || !out.Stats.Converged {
			return false
		}
		return oracle.ProperColoring(g.Edges, out.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestKCoreMonotoneProperty: the k-core shrinks (weakly) as k grows, and
// every surviving vertex has ≥ k neighbors inside the core: the core numbers
// are the ones the oracle peels.
func TestKCoreMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		core, stats, err := KCoreDecomposition(engine.ModePowerGraph, 2, 5, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		return err == nil && stats.Converged && slices.Equal(core, oracle.KCore(g.NumVertices(), g.Edges, 2, 5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankMassProperty: with damping d, the converged total mass is
// bounded: each vertex's rank sits in [1−d, 1 + d·maxInDeg].
func TestPageRankMassProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		g := randomGraphFrom(raw)
		if g.NumEdges() == 0 {
			return true
		}
		a, err := runOn(g)
		if err != nil {
			return false
		}
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, PageRank{}, a, propCluster, testModel,
			engine.Options{MaxSupersteps: 4000})
		if err != nil {
			return false
		}
		for v, r := range out.Values {
			if r < 0.15-1e-9 {
				return false
			}
			if r > 0.15+0.85*float64(g.InDegree(graph.VertexID(v)))*3+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// foldGraph is a random multigraph over 40 vertex ids: self-loops, duplicate
// edges, and — ids 30..38 carry no edge — isolated vertices with two empty
// lists, beside vertices with one empty list.
func foldGraph(rng *rand.Rand) *graph.Graph {
	edges := []graph.Edge{{Src: 39, Dst: 39}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}}
	for i := rng.Intn(150); i > 0; i-- {
		edges = append(edges, graph.Edge{Src: graph.VertexID(rng.Intn(30)), Dst: graph.VertexID(rng.Intn(30))})
	}
	return graph.FromEdges("fold", edges)
}

// checkFolds folds every vertex's two adjacency lists with prog.Gather and
// with the per-edge reference, in both orders: the first list of an order
// starts from the empty accumulator, the second from what the first left —
// the value from the other direction an undirected gather carries over. The
// two chains never share an accumulator, since a Gather may modify its own.
func checkFolds[V, A any](t *testing.T, prog engine.Program[V, A], ref edgeRef[V, A], g *graph.Graph, vals []V, same func(a, b A) bool) {
	t.Helper()
	in, out := g.Adjacency()
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		lists := map[engine.Direction][]graph.VertexID{
			engine.DirIn:  in.Neighbors[in.Index[v]:in.Index[v+1]],
			engine.DirOut: out.Neighbors[out.Index[v]:out.Index[v+1]],
		}
		for _, order := range [][2]engine.Direction{{engine.DirIn, engine.DirOut}, {engine.DirOut, engine.DirIn}} {
			var got, want A
			hasAcc := false
			for _, dir := range order {
				got = prog.Gather(g, v, dir, lists[dir], vals, got, hasAcc)
				want = ref.fold(g, v, dir, lists[dir], vals, want, hasAcc)
				hasAcc = hasAcc || len(lists[dir]) > 0
				if !same(got, want) {
					t.Fatalf("%s: vertex %d, order %v, after the %v list %v: Gather folded to %v, the per-edge definition to %v",
						prog.Name(), v, order, dir, lists[dir], got, want)
				}
			}
		}
	}
}

// TestGatherFoldsLikeThePerEdgeDefinition: a program's per-list Gather is the
// per-edge Gather and Sum it replaced, folded in list order — bit for bit, so
// no Values and no digest can have moved.
func TestGatherFoldsLikeThePerEdgeDefinition(t *testing.T) {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameSet := func(a, b ColorSet) bool { return slices.Equal(a, b) }
	floats := []float64{0, math.Copysign(0, -1), 1, 0.15, 1e-300, 3.5e17, math.Inf(1)}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 40; round++ {
		g := foldGraph(rng)
		n := g.NumVertices()
		ranks, dists := make([]float64, n), make([]float64, n)
		labels, alive, colors := make([]uint32, n), make([]int32, n), make([]int32, n)
		for v := 0; v < n; v++ {
			ranks[v], dists[v] = rng.Float64()*3, float64(rng.Intn(12))
			if rng.Intn(4) == 0 {
				ranks[v], dists[v] = floats[rng.Intn(len(floats))], floats[rng.Intn(len(floats))]
			}
			labels[v], alive[v], colors[v] = uint32(rng.Intn(n)), int32(rng.Intn(2)), int32(rng.Intn(200))
		}
		coloring := Coloring{Seed: uint64(round)}
		checkFolds[float64, float64](t, PageRank{}, refPageRankEdge, g, ranks, sameFloat)
		checkFolds[float64, float64](t, SSSP{}, refSSSPEdge, g, dists, sameFloat)
		checkFolds[float64, float64](t, SSSP{Directed: true}, refSSSPEdge, g, dists, sameFloat)
		checkFolds[uint32, uint32](t, WCC{}, refWCCEdge, g, labels, func(a, b uint32) bool { return a == b })
		checkFolds[int32, int32](t, KCore{K: 3}, refKCoreEdge, g, alive, func(a, b int32) bool { return a == b })
		checkFolds[int32, ColorSet](t, coloring, refColoringEdge(coloring), g, colors, sameSet)
	}
}

// TestColoringGatherAllocatesPerVertexAtMost: the gather ORs a vertex's
// neighbor colors into one accumulator, so a run allocates at most a set per
// vertex visit — not, as Gather + Sum did, up to two per gather edge. This run
// is 13 supersteps and 180 426 edge visits: the per-edge form made 160 531
// allocations, the per-list form makes 10 763, and the bound sits between.
func TestColoringGatherAllocatesPerVertexAtMost(t *testing.T) {
	g := gen.PrefAttach("pa", 1200, 5, 0x22)
	a, err := partition.Partition(g, partition.MustNew("Random", partition.Options{}), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	var stats engine.Stats
	allocs := testing.AllocsPerRun(3, func() {
		out, err := engine.Run[int32, ColorSet](engine.ModePowerGraph, Coloring{}, a, cluster.Local9, testModel,
			engine.Options{MaxSupersteps: 2000, Workers: 1})
		if err != nil || !out.Stats.Converged {
			t.Fatalf("coloring: converged %v, err %v", out.Stats.Converged, err)
		}
		stats = out.Stats
	})
	if visits := float64(stats.EdgesProcessed); allocs > visits/10 {
		t.Errorf("a Coloring run of %d supersteps and %.0f edge visits made %.0f allocations; want at most one per ten visits",
			stats.Supersteps, visits, allocs)
	}
	t.Logf("%d supersteps, %d edge visits, %.0f allocations", stats.Supersteps, stats.EdgesProcessed, allocs)
}
