package engine_test

import (
	"fmt"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// benchWorkers is the worker axis of every benchmark here: sequential, and
// whatever the box has.
var benchWorkers = []struct {
	name string
	n    int
}{{"1", 1}, {"all", 0}}

// smallFrontierInput is BenchmarkEngineParallelSmallFrontier's input — a
// 400×400 road network, 2D at EC2x16's 16 parts — which
// TestGatherCallsPerVertexNotPerEdge pins the step and visit counts of.
func smallFrontierInput(tb testing.TB) *partition.Assignment {
	g := gen.RoadNet("road-net", 400, 400, 1)
	g.EnsureCSR()
	a, err := partition.Partition(g, partition.MustNew("2D", partition.Options{}), cluster.EC2x16.NumParts(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// denseInput is BenchmarkEngineParallelDense's input — a heavy-tailed
// 50 000-vertex graph, 2D at GraphXLocal10's 40 parts — which
// TestDenseRunAllocatesItsClosedForm bounds the allocation of.
func denseInput(tb testing.TB) *partition.Assignment {
	g := gen.PrefAttach("social", 50000, 10, 1)
	g.EnsureCSR()
	a, err := partition.Partition(g, partition.MustNew("2D", partition.Options{}), cluster.GraphXLocal10.NumParts(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// BenchmarkEngineParallel times the one superstep loop under each system's
// cost policy, sequential vs parallel, on all-active frontiers: three
// PageRank supersteps over a road network and a skewed power-law graph
// (hub-heavy shards). On a multi-core host workers=all should beat workers=1
// on both. The regime parallelism cannot help is the SmallFrontier benchmark
// below.
func BenchmarkEngineParallel(b *testing.B) {
	graphs := []*graph.Graph{
		gen.RoadNet("road-net", 250, 250, 1),
		gen.PrefAttach("power-law", 100000, 8, 1),
	}
	// Each system runs three PageRank supersteps and returns its edge visits
	// (0 for GraphX, whose Stats carry no edge count: it reports ns/op only).
	systems := []struct {
		name string
		cc   cluster.Config
		run  func(a *partition.Assignment, workers int) (int64, error)
	}{
		{"PowerGraph", cluster.Local9, gasPageRank(engine.ModePowerGraph)},
		{"PowerLyra", cluster.Local9, gasPageRank(engine.ModePowerLyra)},
		{"GraphX", cluster.GraphXLocal9, func(a *partition.Assignment, workers int) (int64, error) {
			_, err := graphx.Run[float64, float64](app.PageRank{}, a,
				graphx.Config{Cluster: cluster.GraphXLocal9, Iterations: 3, Workers: workers}, model)
			return 0, err
		}},
	}
	for _, g := range graphs {
		g.EnsureCSR()
		for _, sys := range systems {
			a, err := partition.Partition(g, partition.MustNew("Random", partition.Options{}), sys.cc.NumParts(), 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range benchWorkers {
				b.Run(fmt.Sprintf("%s/%s/workers=%s", g.Name, sys.name, w.name), func(b *testing.B) {
					var edges int64
					for i := 0; i < b.N; i++ {
						e, err := sys.run(a, w.n)
						if err != nil {
							b.Fatal(err)
						}
						edges += e
					}
					if edges > 0 {
						b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
					}
				})
			}
		}
	}
}

// BenchmarkEngineParallelSmallFrontier is the regime itself: PowerLyra SSSP
// to convergence on a road network — hundreds of supersteps whose frontiers
// are a few thousand vertices at most — where the per-superstep and per-visit
// overhead is all there is, and workers=all must not lose to workers=1.
func BenchmarkEngineParallelSmallFrontier(b *testing.B) {
	a := smallFrontierInput(b)
	for _, w := range benchWorkers {
		b.Run("workers="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int64
			for i := 0; i < b.N; i++ {
				out, err := engine.Run[float64, float64](engine.ModePowerLyra, app.SSSP{Source: 0}, a, cluster.EC2x16, model,
					engine.Options{Workers: w.n})
				if err != nil {
					b.Fatal(err)
				}
				edges += out.Stats.EdgesProcessed
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkEngineParallelDense is the other regime, and the compute stage of
// the benchmark's pipeline-graphx: ten GraphX PageRank iterations over a
// heavy-tailed graph at 40 parts, every frontier most of the graph, so the
// time is the gather scan — per-edge loads, not per-superstep overhead.
func BenchmarkEngineParallelDense(b *testing.B) {
	a := denseInput(b)
	for _, w := range benchWorkers {
		b.Run("workers="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := graphx.Run[float64, float64](app.PageRank{}, a,
					graphx.Config{Cluster: cluster.GraphXLocal10, Iterations: 10, Workers: w.n}, model)
				if err != nil || out.Stats.Iterations != 10 {
					b.Fatalf("%d iterations, err %v", out.Stats.Iterations, err)
				}
			}
		})
	}
}

func gasPageRank(mode engine.Mode) func(*partition.Assignment, int) (int64, error) {
	return func(a *partition.Assignment, workers int) (int64, error) {
		out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cluster.Local9, model,
			engine.Options{FixedIterations: 3, Workers: workers})
		if err != nil {
			return 0, err
		}
		return out.Stats.EdgesProcessed, nil
	}
}
