package graphx_test

import (
	"errors"
	"math"
	"reflect"
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

var model = cluster.DefaultModel()

func gxAssignment(t *testing.T, g *graph.Graph, strategy string, cc cluster.Config) *partition.Assignment {
	t.Helper()
	s := partition.MustNew(strategy, partition.Options{})
	a, err := partition.Partition(g, s, cc.NumParts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGraphXPageRankMatchesGAS(t *testing.T) {
	g := gen.PrefAttach("gx-test", 2000, 5, 0x9)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	out, err := graphx.Run[float64, float64](app.PageRank{}, a, graphx.Config{Cluster: cc, Iterations: 10}, model)
	if err != nil {
		t.Fatal(err)
	}
	// GraphX halts Pregel-style: a vertex whose in-neighbours stopped moving
	// by more than the tolerance is not recomputed.
	ref := oracle.PageRank(g.NumVertices(), g.Edges, 0.85, 1e-3, 10, true)
	for v := range ref {
		if math.Abs(out.Values[v]-ref[v]) > 1e-12*ref[v] {
			t.Fatalf("pagerank[%d] = %v, oracle %v", v, out.Values[v], ref[v])
		}
	}
	if out.Stats.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", out.Stats.Iterations)
	}
}

func TestGraphXCumulativeMonotone(t *testing.T) {
	g := gen.RoadNet("gx-road", 30, 30, 0x9)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "2D", cc)
	out, err := graphx.Run[uint32, uint32](app.WCC{}, a, graphx.Config{Cluster: cc, Iterations: 25}, model)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if len(st.CumulativeSeconds) != len(st.IterSeconds) {
		t.Fatalf("cumulative/iteration length mismatch")
	}
	prev := st.PartitionSeconds
	for i, c := range st.CumulativeSeconds {
		if c < prev {
			t.Fatalf("cumulative time decreased at iteration %d: %v < %v", i+1, c, prev)
		}
		prev = c
	}
	if st.PartitionSeconds <= 0 {
		t.Error("partitioning phase should have positive cost")
	}
}

func TestGraphXConvergenceStopsEarly(t *testing.T) {
	// A tiny two-vertex graph converges long before 25 iterations.
	g := graph.FromEdges("tiny", []graph.Edge{{Src: 0, Dst: 1}})
	cc := cluster.Config{Machines: 1, PartsPerMachine: 2}
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	out, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, graphx.Config{Cluster: cc, Iterations: 25}, model)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stats.Converged {
		t.Error("tiny SSSP did not converge")
	}
	if out.Stats.Iterations >= 25 {
		t.Errorf("ran all %d iterations", out.Stats.Iterations)
	}
	if out.Values[1] != 1 {
		t.Errorf("dist[1] = %v, want 1", out.Values[1])
	}
	// A negative cap is no cap, exactly as 0 is (and as
	// engine.Options.MaxSupersteps reads it).
	for _, iters := range []int{0, -1} {
		free, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, graphx.Config{Cluster: cc, Iterations: iters}, model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(free.Stats, out.Stats) || !reflect.DeepEqual(free.Values, out.Values) {
			t.Errorf("Iterations=%d: %+v, want the capped run's %+v", iters, free.Stats, out.Stats)
		}
	}
}

// TestGraphXReactivatorFrontierMatchesGAS pins the voting rule: a Reactivator
// program (K-Core) keeps its alive vertices in GraphX's frontier every round,
// exactly as under GAS, so it is priced bulk-iterative (§3.3.3) rather than
// activation-driven. With one second per gather edge and every other cost
// zero on one machine, ComputeSeconds *is* the number of gather visits.
func TestGraphXReactivatorFrontierMatchesGAS(t *testing.T) {
	// A 40-vertex path peels from both ends, one vertex per side per round;
	// the 12-clique beside it stays alive and re-gathers every round.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 39; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	for u := graph.VertexID(40); u < 52; u++ {
		for v := u + 1; v < 52; v++ {
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
	}
	g := graph.FromEdges("path+clique", edges)
	cc := cluster.Config{Machines: 1, PartsPerMachine: 4}
	a := gxAssignment(t, g, "CanonicalRandom", cc)
	visits := cluster.CostModel{GatherEdgeNs: 1e9, RDDEdgeNs: 1e9, BandwidthBytesPerSec: 1, DiskBytesPerSec: 1}

	gx, err := graphx.Run[int32, int32](app.KCore{K: 2}, a, graphx.Config{Cluster: cc}, visits)
	if err != nil {
		t.Fatal(err)
	}
	gas, err := engine.Run[int32, int32](engine.ModePowerGraph, app.KCore{K: 2}, a, cc, visits, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gx.Stats.Iterations != gas.Stats.Supersteps || !reflect.DeepEqual(gx.Values, gas.Values) {
		t.Fatalf("GraphX ran %d iterations, GAS %d supersteps (or values differ)", gx.Stats.Iterations, gas.Stats.Supersteps)
	}
	if gx.Stats.ComputeSeconds != gas.Stats.ComputeSeconds {
		t.Errorf("GraphX gathered %v edges, GAS %v", gx.Stats.ComputeSeconds, gas.Stats.ComputeSeconds)
	}
	if floor := float64(gx.Stats.Iterations * 12 * 11); gx.Stats.ComputeSeconds < floor {
		t.Errorf("gathered %v edges in %d rounds: the clique alone re-gathers %v", gx.Stats.ComputeSeconds, gx.Stats.Iterations, floor)
	}
}

func TestGraphXMemoryCases(t *testing.T) {
	g := gen.PrefAttach("gx-mem", 3000, 6, 0xa)
	cc := cluster.GraphXLocal9
	a := gxAssignment(t, g, "CanonicalRandom", cc)

	var total float64
	for p := 0; p < a.NumParts; p++ {
		total += float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
	}
	perMachine := total / float64(cc.Machines)

	run := func(mem float64) graphx.Stats {
		out, err := graphx.Run[float64, float64](app.PageRank{}, a,
			graphx.Config{Cluster: cc, Iterations: 5, ExecutorMemBytes: mem}, model)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats
	}

	// Case 1: can't fit anywhere.
	if st := run(model.ExecutorBase + perMachine/4); !st.Failed {
		t.Error("expected case-1 failure at tiny executor memory")
	}
	// Case 2: fits spread out, not in two executors.
	st2 := run(model.ExecutorBase + perMachine*1.5)
	if st2.Failed {
		t.Fatal("case 2 should not fail")
	}
	if st2.FitAttempts == 0 {
		t.Error("case 2 should need redistribution attempts")
	}
	// Case 3: fits in two executors on the first try.
	st3 := run(model.ExecutorBase + perMachine*float64(cc.Machines))
	if st3.Failed || st3.FitAttempts != 0 {
		t.Errorf("case 3: failed=%v attempts=%d", st3.Failed, st3.FitAttempts)
	}
	if st3.ComputeSeconds >= st2.ComputeSeconds {
		t.Errorf("ample memory (%.3fs) not faster than pressured (%.3fs)", st3.ComputeSeconds, st2.ComputeSeconds)
	}
	// GC overhead decreases with more memory.
	if st3.GCOverhead > st2.GCOverhead {
		t.Errorf("GC overhead grew with memory: %.2f > %.2f", st3.GCOverhead, st2.GCOverhead)
	}
	// No-pressure config reports GCOverhead 1.
	if st := run(0); st.GCOverhead != 1 {
		t.Errorf("unlimited memory GC overhead = %v, want 1", st.GCOverhead)
	}
}

func TestGraphXRejectsMismatchedCluster(t *testing.T) {
	g := gen.RoadNet("gx-bad", 10, 10, 1)
	a := gxAssignment(t, g, "CanonicalRandom", cluster.GraphXLocal9)
	_, err := graphx.Run[float64, float64](app.PageRank{}, a,
		graphx.Config{Cluster: cluster.GraphXLocal10, Iterations: 3}, model)
	if err == nil {
		t.Fatal("accepted mismatched cluster")
	}
}

// TestGraphXRefusesMoreThanMaxParts: graphx.Run refuses an assignment of
// engine.MaxParts+1 partitions on a cluster that matches it, with
// engine.ErrTooManyParts.
func TestGraphXRefusesMoreThanMaxParts(t *testing.T) {
	cc := cluster.Config{Machines: engine.MaxParts + 1, PartsPerMachine: 1}
	a := gxAssignment(t, gen.PrefAttach("gx-many-parts", 2000, 4, 0x3), "CanonicalRandom", cc)
	_, err := graphx.Run[float64, float64](app.PageRank{}, a, graphx.Config{Cluster: cc, Iterations: 1}, model)
	if !errors.Is(err, engine.ErrTooManyParts) {
		t.Errorf("err = %v, want engine.ErrTooManyParts", err)
	}
}

func TestGraphXGreedyPartitioningSlower(t *testing.T) {
	// Ch. 9: ported greedy strategies partition more slowly than the
	// native hashes in GraphX. The surcharge follows the assignment's
	// ingress shape, not a list of names: HEP (two passes, greedy) must cost
	// more than Hybrid (two passes, hash).
	g := gen.PrefAttach("gx-greedy", 3000, 6, 0xb)
	cc := cluster.GraphXLocal9
	partitionSeconds := func(strategy string) float64 {
		out, err := graphx.Run[float64, float64](app.PageRank{}, gxAssignment(t, g, strategy, cc),
			graphx.Config{Cluster: cc, Iterations: 1}, model)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats.PartitionSeconds
	}
	for _, pair := range [][2]string{{"HDRF", "CanonicalRandom"}, {"HEP", "Hybrid"}} {
		if greedy, hash := partitionSeconds(pair[0]), partitionSeconds(pair[1]); greedy <= hash {
			t.Errorf("%s partitioning %.4f ≤ %s %.4f", pair[0], greedy, pair[1], hash)
		}
	}
}

// TestGraphXParallelDeterminism: the GraphX engine's sharded execution must
// be byte-identical to the sequential run for every worker count, exactly
// like the GAS engine's (see engine/determinism_test.go).
func TestGraphXParallelDeterminism(t *testing.T) {
	g := gen.PrefAttach("gx-det", 2200, 5, 0x9)
	cc := cluster.GraphXLocal9
	for _, strat := range []string{"CanonicalRandom", "2D", "HDRF"} {
		a := gxAssignment(t, g, strat, cc)
		for _, appName := range []string{"PageRank", "WCC", "SSSP"} {
			t.Run(strat+"/"+appName, func(t *testing.T) {
				run := func(workers int) (any, graphx.Stats) {
					gcfg := graphx.Config{Cluster: cc, Iterations: 15, Workers: workers}
					switch appName {
					case "PageRank":
						out, err := graphx.Run[float64, float64](app.PageRank{}, a, gcfg, model)
						if err != nil {
							t.Fatal(err)
						}
						return out.Values, out.Stats
					case "WCC":
						out, err := graphx.Run[uint32, uint32](app.WCC{}, a, gcfg, model)
						if err != nil {
							t.Fatal(err)
						}
						return out.Values, out.Stats
					default:
						out, err := graphx.Run[float64, float64](app.SSSP{Source: 0}, a, gcfg, model)
						if err != nil {
							t.Fatal(err)
						}
						return out.Values, out.Stats
					}
				}
				seqVals, seqStats := run(1)
				for _, w := range []int{2, 4, 7} {
					parVals, parStats := run(w)
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

// TestPartitionPhaseAllStrategies pins GraphX's modelled partitioning phase
// for every registered strategy bit for bit: BENCH_seed1.json prices only
// the nine GraphX-All strategies, and the phase reads the strategy's
// ingress shape (passes, heuristic passes) through the assignment.
func TestPartitionPhaseAllStrategies(t *testing.T) {
	want := map[string]uint64{ // recorded on 5107ae9
		"1D":              0x3f3f489eef07cef1, // 0.00047735100000000004
		"1D-Target":       0x3f41d353c6f3e73a, // 0.000543991
		"2D":              0x3f4137f861479004, // 0.000525471
		"AsymRandom":      0x3f442796ea343330, // 0.000615071
		"CanonicalRandom": 0x3f443151fef2b130, // 0.0006162310000000001
		"Grid":            0x3f46d72f5151565f, // 0.00069703875
		"H-Ginger":        0x3f51235f3be0e7f3, // 0.001046031
		"HDRF":            0x3f4ea0ac29e17243, // 0.000934681
		"HEP":             0x3f4d56498526925e, // 0.0008952960000000001
		"Hybrid":          0x3f436dd2e3b4923b, // 0.000592926
		"JaBeJaSwap":      0x3f53f16518c4ae2b, // 0.0012172209999999999
		"Multilevel":      0x3f5035a38c1cea83, // 0.000989351
		"Oblivious":       0x3f4eb2caba704b3a, // 0.0009368410000000001
		"PDS":             0x3f283cdf66a374c6, // 0.00018491961538461536
		"Random":          0x3f443151fef2b130, // 0.0006162310000000001
		"ResilientGrid":   0x3f41a65d43ca5195, // 0.000538631
	}
	g := gen.PrefAttach("gx-phase", 1500, 5, 0xd)
	names := partition.AllNames()
	if len(names) != len(want) {
		t.Errorf("%d registered strategies, %d pinned partition phases", len(names), len(want))
	}
	for _, name := range names {
		cc := cluster.Config{Machines: 5, PartsPerMachine: 2}
		switch name {
		case "PDS":
			cc = cluster.Config{Machines: 13, PartsPerMachine: 1}
		case "Grid":
			cc = cluster.Config{Machines: 4, PartsPerMachine: 4}
		}
		out, err := graphx.Run[float64, float64](app.PageRank{}, gxAssignment(t, g, name, cc),
			graphx.Config{Cluster: cc, Iterations: 1}, model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := math.Float64bits(out.Stats.PartitionSeconds); got != want[name] {
			t.Errorf("%s: PartitionSeconds = %v (bits %#x), want bits %#x",
				name, out.Stats.PartitionSeconds, got, want[name])
		}
	}
}
