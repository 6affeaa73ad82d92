package engine_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/oracle"
	"graphpart/internal/partition"
)

// detCase is one application configuration of the determinism suite. Values
// are returned as `any` so every app shares one comparison path.
type detCase struct {
	name string
	run  func(mode engine.Mode, a *partition.Assignment, workers int) (any, engine.Stats, error)
	// graphx runs the same program and step cap under graphx.Run on the same
	// placement, returning values and iterations. Nil where GraphX has no
	// counterpart: FixedIterations' all-active frontier and the multi-pass
	// decomposition driver.
	graphx func(a *partition.Assignment, workers int) (any, int, error)
	// oracle is the answer internal/oracle computes from g's edge list alone
	// (see agrees).
	oracle func(g *graph.Graph) any
}

func detOpts(workers int) engine.Options {
	return engine.Options{Workers: workers, MaxSupersteps: 4000}
}

// programCase runs one vertex program capped at maxSteps under all three
// systems on cfg.
func programCase[V, A any](name string, prog engine.Program[V, A], maxSteps int, cfg cluster.Config, answer func(*graph.Graph) any) detCase {
	return detCase{name,
		func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			opts := detOpts(w)
			opts.MaxSupersteps = maxSteps
			out, err := engine.Run(mode, prog, a, cfg, model, opts)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		},
		func(a *partition.Assignment, w int) (any, int, error) {
			out, err := graphx.Run(prog, a, graphx.Config{Cluster: cfg, Iterations: maxSteps, Workers: w}, model)
			if err != nil {
				return nil, 0, err
			}
			return out.Values, out.Stats.Iterations, nil
		},
		answer}
}

// detCases are the applications of the suite on cluster cfg. Damping and
// tolerances are written out for the oracle, not read from app, so a drift
// there is caught.
func detCases(cfg cluster.Config) []detCase {
	pageRank := func(tol float64, iters int, activeSet bool) func(*graph.Graph) any {
		return func(g *graph.Graph) any {
			return near(oracle.PageRank(g.NumVertices(), g.Edges, 0.85, tol, iters, activeSet))
		}
	}
	return []detCase{
		{"PageRank(10)", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			opts := detOpts(w)
			opts.MaxSupersteps = 0
			opts.FixedIterations = 10
			out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cfg, model, opts)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}, nil, pageRank(1e-3, 10, false)},
		programCase("PageRank(cap 10)", app.PageRank{}, 10, cfg, pageRank(1e-3, 10, true)),
		programCase("PageRank(C)", app.PageRank{Tolerance: 1e-2}, 4000, cfg, pageRank(1e-2, 4000, true)),
		programCase("WCC", app.WCC{}, 4000, cfg, func(g *graph.Graph) any { return oracle.WCC(g.NumVertices(), g.Edges) }),
		programCase("SSSP", app.SSSP{Source: 0}, 4000, cfg, func(g *graph.Graph) any {
			return oracle.BFS(g.NumVertices(), g.Edges, 0, false)
		}),
		{"K-Core", func(mode engine.Mode, a *partition.Assignment, w int) (any, engine.Stats, error) {
			return app.KCoreDecomposition(mode, 3, 6, a, cfg, model, detOpts(w))
		}, nil, func(g *graph.Graph) any { return oracle.KCore(g.NumVertices(), g.Edges, 3, 6) }},
		programCase("K-Core(3)", app.KCore{K: 3}, 4000, cfg, func(g *graph.Graph) any {
			removed := make([]int32, g.NumVertices())
			for v, core := range oracle.KCore(g.NumVertices(), g.Edges, 3, 3) {
				if core < 3 {
					removed[v] = app.VertexRemoved
				}
			}
			return removed
		}),
		programCase("Coloring", app.Coloring{}, 4000, cfg, func(*graph.Graph) any { return nil }),
	}
}

// near is an oracle answer the engines may miss in the last bits: the
// oracle sums PageRank's terms in edge-list order.
type near []float64

// agrees reports whether vals are the oracle's answer: within a relative
// 1e-12 of a near answer, equal to any other, and a proper coloring where
// there is no answer.
func agrees(g *graph.Graph, vals, answer any) bool {
	switch want := answer.(type) {
	case nil:
		return oracle.ProperColoring(g.Edges, vals.([]int32))
	case near:
		return slices.EqualFunc(vals.([]float64), want, func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) })
	}
	return reflect.DeepEqual(vals, answer)
}

// TestParallelEngineDeterminism pins the tentpole contract: for every
// application, engine mode, and representative strategy, a parallel run
// (Workers ≥ 2) produces byte-identical Stats and Values to the sequential
// run (Workers = 1). This is what lets the simulation keep its "metrics are
// deterministic functions of partitioning quality" claim while executing on
// however many cores the host has.
func TestParallelEngineDeterminism(t *testing.T) {
	graphs := map[string]*graph.Graph{
		// Skewed: a few shards carry hub vertices, stressing the dynamic
		// shard scheduler.
		"power-law": gen.PrefAttach("det-plaw", 2200, 5, 0x9),
	}
	strategies := []string{"Random", "Hybrid"}
	workerSet := []int{4}
	if !testing.Short() {
		strategies = append(strategies, "Grid", "HDRF")
		workerSet = append(workerSet, 2, 7)
		// High-diameter: thousands of small frontiers exercise the inline
		// (single-shard) path against the sharded one.
		graphs["road-net"] = gen.RoadNet("det-road", 45, 45, 0x9)
	}
	modes := []engine.Mode{engine.ModePowerGraph, engine.ModePowerLyra}

	for gname, g := range graphs {
		for _, strat := range strategies {
			s := partition.MustNew(strat, partition.Options{})
			a, err := partition.Partition(g, s, 9, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				for _, tc := range detCases(cluster.Local9) {
					t.Run(fmt.Sprintf("%s/%s/mode%d/%s", gname, strat, mode, tc.name), func(t *testing.T) {
						seqVals, seqStats, err := tc.run(mode, a, 1)
						if err != nil {
							t.Fatal(err)
						}
						for _, w := range workerSet {
							parVals, parStats, err := tc.run(mode, a, w)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(seqVals, parVals) {
								t.Errorf("Workers=%d Values differ from Workers=1", w)
							}
							if !reflect.DeepEqual(seqStats, parStats) {
								t.Errorf("Workers=%d Stats differ from Workers=1:\nseq: %+v\npar: %+v", w, seqStats, parStats)
							}
						}
					})
				}
			}
		}
	}
}

// TestDecayingFrontierDeterminism keeps the fanned-out path under test: a
// phase of fewer than 8 shards (2 048 items) stays on the calling goroutine,
// which is every phase of the graphs above except an all-active one. Here
// PageRank runs to convergence on 12 000 vertices, so its frontier starts
// above the boundary and decays through it, and every float of Stats and
// Values must be identical at 1, 2, 3 and 8 workers under all three systems.
func TestDecayingFrontierDeterminism(t *testing.T) {
	g := gen.PrefAttach("det-decay", 12000, 5, 0x9)
	a, err := partition.Partition(g, partition.MustNew("HDRF", partition.Options{}), 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog := app.PageRank{Tolerance: 1e-2}
	gas := programCase("PageRank(C)", prog, 4000, cluster.Local9, nil).run
	systems := map[string]func(workers int) (vals, stats any, steps int, err error){
		"PowerGraph": func(w int) (any, any, int, error) {
			vals, st, err := gas(engine.ModePowerGraph, a, w)
			return vals, st, st.Supersteps, err
		},
		"PowerLyra": func(w int) (any, any, int, error) {
			vals, st, err := gas(engine.ModePowerLyra, a, w)
			return vals, st, st.Supersteps, err
		},
		"GraphX": func(w int) (any, any, int, error) {
			out, err := graphx.Run[float64, float64](prog, a, graphx.Config{Cluster: cluster.Local9, Workers: w}, model)
			if err != nil {
				return nil, nil, 0, err
			}
			return out.Values, out.Stats, out.Stats.Iterations, nil
		},
	}
	for name, run := range systems {
		wantVals, wantStats, steps, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		if steps < 3 {
			t.Fatalf("%s: test premise broken: converged in %d supersteps, no decaying tail", name, steps)
		}
		for _, w := range []int{2, 3, 8} {
			vals, stats, _, err := run(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals, wantVals) {
				t.Errorf("%s: Workers=%d Values differ from Workers=1", name, w)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("%s: Workers=%d Stats differ from Workers=1:\n got %+v\nwant %+v", name, w, stats, wantStats)
			}
		}
	}
}

// TestFixedIterationsIncludesIsolatedVertices is the regression test for the
// frontier-rebuild bug: in FixedIterations mode, isolated vertices (Master <
// 0) were skipped by the all-active rebuild and never reached Apply, so
// PageRank(10) silently kept their init value instead of the (1−d) floor the
// convergence-mode isolated-vertex branch computes.
func TestFixedIterationsIncludesIsolatedVertices(t *testing.T) {
	// Vertices 3 and 4 are isolated: they carry no edges but sit below the
	// max vertex id, exactly how degree-0 vertices appear in edge-list
	// datasets.
	g := graph.FromEdges("isolated", []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 5, Dst: 6},
	})
	a, err := partition.Partition(g, partition.MustNew("Random", partition.Options{}), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.VertexID{3, 4} {
		if a.Master(v) >= 0 {
			t.Fatalf("test premise broken: vertex %d has a master", v)
		}
	}

	fixed, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Compute the floor with the same runtime float64 arithmetic Apply
	// uses (1−0.85 is not exactly 0.15 in float64).
	d := float64(app.DefaultDamping)
	want := (1 - d) + d*0
	for _, v := range []graph.VertexID{3, 4} {
		if fixed.Values[v] != conv.Values[v] {
			t.Errorf("isolated vertex %d: PageRank(10) = %v, convergence mode = %v", v, fixed.Values[v], conv.Values[v])
		}
		if fixed.Values[v] != want {
			t.Errorf("isolated vertex %d: PageRank(10) = %v, want the (1−d) floor %v", v, fixed.Values[v], want)
		}
	}
}
