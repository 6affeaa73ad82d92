package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
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

func assignmentFor(t *testing.T, strategy string) *partition.Assignment {
	t.Helper()
	g := gen.PrefAttach("engine-test", 3000, 6, 0x5)
	s := partition.MustNew(strategy, partition.Options{})
	a, err := partition.Partition(g, s, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var model = cluster.DefaultModel()

func runPR(t *testing.T, mode engine.Mode, a *partition.Assignment) engine.Stats {
	t.Helper()
	out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{FixedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	return out.Stats
}

// TestLyraSavesTrafficForNaturalApps pins §6.1's core mechanism: on the
// same Hybrid assignment, the hybrid engine uses less network than the
// PowerGraph engine for a natural application.
func TestLyraSavesTrafficForNaturalApps(t *testing.T) {
	a := assignmentFor(t, "Hybrid")
	pg := runPR(t, engine.ModePowerGraph, a)
	lyra := runPR(t, engine.ModePowerLyra, a)
	if lyra.AvgNetInGB >= pg.AvgNetInGB {
		t.Errorf("hybrid engine net %.5f ≥ PowerGraph net %.5f", lyra.AvgNetInGB, pg.AvgNetInGB)
	}
	if lyra.ComputeSeconds >= pg.ComputeSeconds {
		t.Errorf("hybrid engine compute %.5f ≥ PowerGraph %.5f", lyra.ComputeSeconds, pg.ComputeSeconds)
	}
}

// TestLyraSavingLargerWithHybridPartitioning: the engine saving should be
// larger when the partitioner colocated gather-edges with masters (Hybrid)
// than when it scattered them (Random).
func TestLyraSavingLargerWithHybridPartitioning(t *testing.T) {
	hybrid := assignmentFor(t, "Hybrid")
	random := assignmentFor(t, "Random")
	hybridSaving := runPR(t, engine.ModePowerGraph, hybrid).AvgNetInGB - runPR(t, engine.ModePowerLyra, hybrid).AvgNetInGB
	randomSaving := runPR(t, engine.ModePowerGraph, random).AvgNetInGB - runPR(t, engine.ModePowerLyra, random).AvgNetInGB
	relHybrid := hybridSaving / runPR(t, engine.ModePowerGraph, hybrid).AvgNetInGB
	relRandom := randomSaving / runPR(t, engine.ModePowerGraph, random).AvgNetInGB
	if relHybrid <= relRandom {
		t.Errorf("relative saving: hybrid %.3f ≤ random %.3f", relHybrid, relRandom)
	}
}

// TestSameResultsAcrossSystems is the metamorphic form of "partitioning and
// system change cost, never answers": on the placement of every strategy,
// every application gives byte-identical Values and the same superstep count
// under PowerGraph, PowerLyra and GraphX at every worker count — K-Core, whose
// Reactivator voting GraphX must honour, included — and those values are the
// ones the oracle recomputes from the edge list alone.
func TestSameResultsAcrossSystems(t *testing.T) {
	graphs := []*graph.Graph{
		gen.PrefAttach("power-law", 2200, 5, 0x9),
		gen.RoadNet("road-net", 30, 30, 0x9),
	}
	for _, g := range graphs {
		for _, strat := range partition.AllNames() {
			cfg := cluster.Local9
			if strat == "PDS" { // p²+p+1 parts
				cfg = cluster.Config{Machines: 7, PartsPerMachine: 1}
			}
			a, err := partition.Partition(g, partition.MustNew(strat, partition.Options{}), cfg.NumParts(), 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range detCases(cfg) {
				t.Run(fmt.Sprintf("%s/%s/%s", g.Name, strat, tc.name), func(t *testing.T) {
					want, st, err := tc.run(engine.ModePowerGraph, a, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !agrees(g, want, tc.oracle(g)) {
						t.Errorf("PowerGraph workers=1 Values are not the oracle's")
					}
					check := func(system string, w int, vals any, steps int, err error) {
						if err != nil {
							t.Fatal(err)
						}
						if steps != st.Supersteps {
							t.Errorf("%s workers=%d ran %d supersteps, PowerGraph workers=1 ran %d", system, w, steps, st.Supersteps)
						}
						if !reflect.DeepEqual(vals, want) {
							t.Errorf("%s workers=%d Values differ from PowerGraph workers=1", system, w)
						}
					}
					for _, w := range []int{1, 3} {
						for _, mode := range []engine.Mode{engine.ModePowerGraph, engine.ModePowerLyra} {
							vals, mst, err := tc.run(mode, a, w)
							check(fmt.Sprintf("mode%d", mode), w, vals, mst.Supersteps, err)
						}
						if tc.graphx != nil {
							vals, iters, err := tc.graphx(a, w)
							check("GraphX", w, vals, iters, err)
						}
					}
				})
			}
		}
	}
}

// TestNetworkScalesWithReplication pins Fig 5.3's mechanism at the engine
// level: same graph, same app, higher-RF assignment → more traffic.
func TestNetworkScalesWithReplication(t *testing.T) {
	random := assignmentFor(t, "Random")
	grid := assignmentFor(t, "Grid")
	if random.ReplicationFactor() <= grid.ReplicationFactor() {
		t.Skip("test premise (Random RF > Grid RF) does not hold on this graph")
	}
	netRandom := runPR(t, engine.ModePowerGraph, random).AvgNetInGB
	netGrid := runPR(t, engine.ModePowerGraph, grid).AvgNetInGB
	if netRandom <= netGrid {
		t.Errorf("Random (RF %.2f) net %.5f ≤ Grid (RF %.2f) net %.5f",
			random.ReplicationFactor(), netRandom, grid.ReplicationFactor(), netGrid)
	}
}

// TestNetInClosedForm prices PowerGraph's network without the loop: one
// all-active PageRank superstep with free activation signals moves one
// accumulator and one value per mirror hosted on a machine other than its
// master's, and nothing else, whatever the strategy. The oracle says which
// partitions hold an image. Four partitions a machine put some mirrors on the
// master's own machine; 100 partitions make a replica row two words. PDS
// takes 91 = 9²+9+1 partitions, seven a machine.
func TestNetInClosedForm(t *testing.T) {
	m := model
	m.SignalBytes = 0
	g := gen.PrefAttach("closed-form", 3000, 6, 0x5)
	for _, strat := range partition.AllNames() {
		cc := cluster.Config{Machines: 25, PartsPerMachine: 4}
		if strat == "PDS" {
			cc = cluster.Config{Machines: 13, PartsPerMachine: 7}
		}
		a, err := partition.Partition(g, partition.MustNew(strat, partition.Options{}), cc.NumParts(), 2)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := oracle.NewCut(g.NumVertices(), a.NumParts, g.Edges, a.EdgeParts, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var remote, cohosted int
		for v, master := range a.Masters {
			for p := 0; p < a.NumParts; p++ {
				switch {
				case !cut.Holds(graph.VertexID(v), p) || p == int(master):
				case cc.MachineOf(p) == cc.MachineOf(int(master)):
					cohosted++
				default:
					remote++
				}
			}
		}
		if cohosted == 0 {
			t.Fatalf("%s: test premise broken: no mirror shares its master's machine", strat)
		}
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cc, m, engine.Options{FixedIterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		prog := app.PageRank{}
		perMirror := float64(prog.AccBytes() + prog.ValueBytes() + 2*m.MsgOverheadBytes)
		if want := float64(remote) * perMirror / float64(cc.Machines) / 1e9; out.Stats.AvgNetInGB != want {
			t.Errorf("%s: AvgNetInGB = %v, want %v (%d remote mirrors, %d co-hosted)", strat, out.Stats.AvgNetInGB, want, remote, cohosted)
		}
	}
}

// everyChanges is a program that gathers and scatters nothing and changes
// every vertex it applies: its only traffic is what the policy charges per
// changed vertex.
type everyChanges struct{ app.PageRank }

func (everyChanges) GatherDir() engine.Direction  { return engine.DirNone }
func (everyChanges) ScatterDir() engine.Direction { return engine.DirNone }
func (everyChanges) Apply(_ *graph.Graph, _ graph.VertexID, old float64, _ float64, _ bool) (float64, bool) {
	return old + 1, true
}

// TestShippedBytesReachThePeak: an Execute whose only charge is a Shipped
// transfer reports, as PeakDynBytes, its bytes per remote mirror times the
// remote mirrors over the machine count — at one worker and at three, where
// the scatter phase runs sharded.
func TestShippedBytesReachThePeak(t *testing.T) {
	cc := cluster.Config{Machines: 3, PartsPerMachine: 3}
	a := assignmentFor(t, "HDRF")
	cut, err := oracle.NewCut(a.G.NumVertices(), a.NumParts, a.G.Edges, a.EdgeParts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for v, master := range a.Masters {
		for p := 0; p < a.NumParts; p++ {
			if cut.Holds(graph.VertexID(v), p) && p != int(master) && cc.MachineOf(p) != cc.MachineOf(int(master)) {
				remote++
			}
		}
	}
	const bytes = 3
	ch := engine.Charges{WorkMult: 1, NarrowDegree: -1, Shipped: engine.Transfer{Bytes: bytes, Narrow: engine.DirBoth}}
	want := float64(remote*bytes) / float64(cc.Machines)
	for _, workers := range []int{1, 3} {
		ex := engine.Execute[float64, float64](everyChanges{}, a, cc, model, ch, 1, true, workers)
		if ex.PeakDynBytes != want || want == 0 {
			t.Errorf("workers=%d: PeakDynBytes = %v, want %v (%d remote mirrors)", workers, ex.PeakDynBytes, want, remote)
		}
	}
}

// TestRunRefusesInvalidCostModel: a zero bandwidth used to divide 0 by 0 into
// ComputeSeconds = NaN with no error; both Run functions now refuse the model
// as they refuse a bad cluster, naming the field.
func TestRunRefusesInvalidCostModel(t *testing.T) {
	a := assignmentFor(t, "Random")
	m := model
	m.BandwidthBytesPerSec = 0
	_, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, m, engine.Options{FixedIterations: 1})
	if err == nil || !strings.Contains(err.Error(), "BandwidthBytesPerSec") {
		t.Errorf("engine.Run: err = %v, want one naming BandwidthBytesPerSec", err)
	}
	_, err = graphx.Run[float64, float64](app.PageRank{}, a, graphx.Config{Cluster: cluster.Local9, Iterations: 1}, m)
	if err == nil || !strings.Contains(err.Error(), "BandwidthBytesPerSec") {
		t.Errorf("graphx.Run: err = %v, want one naming BandwidthBytesPerSec", err)
	}
}

func TestMaxSuperstepsCap(t *testing.T) {
	a := assignmentFor(t, "Random")
	out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, app.WCC{}, a, cluster.Local9, model,
		engine.Options{MaxSupersteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Supersteps > 2 {
		t.Errorf("ran %d supersteps with cap 2", out.Stats.Supersteps)
	}
	if out.Stats.Converged {
		t.Error("2-superstep WCC cannot have converged on this graph")
	}
	// A negative cap is no cap, exactly as 0 is.
	var toConvergence [2]engine.Stats
	for i, maxSteps := range []int{0, -1} {
		out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, app.WCC{}, a, cluster.Local9, model,
			engine.Options{MaxSupersteps: maxSteps})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Stats.Converged || out.Stats.Supersteps <= 2 {
			t.Errorf("MaxSupersteps=%d: converged=%v after %d supersteps", maxSteps, out.Stats.Converged, out.Stats.Supersteps)
		}
		toConvergence[i] = out.Stats
	}
	if !reflect.DeepEqual(toConvergence[0], toConvergence[1]) {
		t.Errorf("MaxSupersteps -1 and 0 disagree:\n%+v\n%+v", toConvergence[1], toConvergence[0])
	}
}

// TestRunRefusesBothCaps: FixedIterations used to win silently over a
// MaxSupersteps set beside it; the pair is contradictory and is an error.
func TestRunRefusesBothCaps(t *testing.T) {
	a := assignmentFor(t, "Random")
	_, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Local9, model,
		engine.Options{MaxSupersteps: 3, FixedIterations: 10})
	if err == nil || !strings.Contains(err.Error(), "MaxSupersteps") || !strings.Contains(err.Error(), "FixedIterations") {
		t.Errorf("err = %v, want one naming MaxSupersteps and FixedIterations", err)
	}
}

// TestRunRefusesMoreThanMaxParts: a placement column entry is one byte, so
// engine.Run refuses an assignment of MaxParts+1 partitions on a cluster that
// matches it, with ErrTooManyParts, and runs one of MaxParts.
func TestRunRefusesMoreThanMaxParts(t *testing.T) {
	g := gen.PrefAttach("many-parts", 2000, 4, 0x3)
	for _, parts := range []int{engine.MaxParts, engine.MaxParts + 1} {
		a, err := partition.Partition(g, partition.MustNew("Random", partition.Options{}), parts, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.Config{Machines: parts, PartsPerMachine: 1}, model,
			engine.Options{FixedIterations: 1})
		if tooMany := parts > engine.MaxParts; errors.Is(err, engine.ErrTooManyParts) != tooMany || !tooMany && err != nil {
			t.Errorf("%d parts: err = %v", parts, err)
		}
	}
}

// TestDenseRunAllocatesItsClosedForm pins what one GraphX PageRank run on
// BenchmarkEngineParallelDense's input allocates to its closed form: two
// value arrays, the frontier and the change buffer, the in-column (one byte per
// slot; PageRank scatters free in GraphX, so there is no out-column), the
// frontier bitmaps, the per-shard meters, O(shards·parts), and tallies, plus an
// allowance for the size-class rounding of the large arrays, the cluster
// tables, the closures and the Stats. Per-shard buffers that grow with the
// frontier (≈ 475 KB here) do not fit in the allowance.
func TestDenseRunAllocatesItsClosedForm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	a := denseInput(t)
	const workers = 2
	run := func() {
		out, err := graphx.Run[float64, float64](app.PageRank{}, a,
			graphx.Config{Cluster: cluster.GraphXLocal10, Iterations: 10, Workers: workers}, model)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Iterations != 10 {
			t.Fatalf("%d iterations, want 10", out.Stats.Iterations)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)

	n, slots := a.G.NumVertices(), a.G.NumEdges()
	const shards, allowance = 64, 64 << 10
	form := 2*n*8 + // vals, newVals
		n*4 + n*4 + // frontier, change buffer
		slots + // in-column
		(1+workers)*(n+63)/64*8 + // next frontier, per-worker bitmaps
		shards*(3*a.NumParts*8+72+24) + // per-shard meters (three slices) and tallies (three scalars)
		allowance
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(form) {
		t.Errorf("a dense run allocated %d B, closed form %d B", got, form)
	}
}

// countingProgram counts the calls Execute makes through a Program. A vertex's
// visit runs on one goroutine and supersteps are separated by par.Do's
// barrier, so pending[v] needs no lock; the totals are atomic.
type countingProgram[V, A any] struct {
	engine.Program[V, A]
	pending          []int32 // Gather calls for v since its last Apply
	gathers, applies atomic.Int64
	overcalled       atomic.Int64 // Applies preceded by more than two Gathers
}

func (c *countingProgram[V, A]) Gather(g *graph.Graph, v graph.VertexID, dir engine.Direction, nbrs []graph.VertexID, vals []V, acc A, hasAcc bool) A {
	c.pending[v]++
	c.gathers.Add(1)
	return c.Program.Gather(g, v, dir, nbrs, vals, acc, hasAcc)
}

func (c *countingProgram[V, A]) Apply(g *graph.Graph, v graph.VertexID, old V, acc A, hasAcc bool) (V, bool) {
	if c.pending[v] > 2 {
		c.overcalled.Add(1)
	}
	c.pending[v] = 0
	c.applies.Add(1)
	return c.Program.Apply(g, v, old, acc, hasAcc)
}

// TestGatherCallsPerVertexNotPerEdge: the call count is the contract. Apply
// runs once per frontier vertex, and no vertex may see more than one Gather
// per direction before it — so a superstep makes at most 2·|frontier| calls
// through the Program however many edges it scans — while the edge visits
// charged are what they always were: 697 supersteps and 3 858 600 visits on
// BenchmarkEngineParallelSmallFrontier's input, at any worker count.
func TestGatherCallsPerVertexNotPerEdge(t *testing.T) {
	a := smallFrontierInput(t)
	for _, workers := range []int{1, 3} {
		prog := &countingProgram[float64, float64]{Program: app.SSSP{Source: 0}, pending: make([]int32, a.G.NumVertices())}
		out, err := engine.Run[float64, float64](engine.ModePowerLyra, prog, a, cluster.EC2x16, model, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Supersteps != 697 || out.Stats.EdgesProcessed != 3858600 {
			t.Errorf("workers=%d: %d supersteps, %d edge visits; want 697 and 3858600", workers, out.Stats.Supersteps, out.Stats.EdgesProcessed)
		}
		gathers, applies := prog.gathers.Load(), prog.applies.Load()
		if n := prog.overcalled.Load(); n != 0 || gathers != 2*applies {
			t.Errorf("workers=%d: %d Gather calls for %d frontier visits (%d visits saw more than two); want one per direction",
				workers, gathers, applies, n)
		}
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[engine.Direction]string{
		engine.DirNone: "none", engine.DirIn: "in",
		engine.DirOut: "out", engine.DirBoth: "both",
		engine.Direction(42): "?",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestSuperstepSecondsSumToCompute(t *testing.T) {
	a := assignmentFor(t, "HDRF")
	st := runPR(t, engine.ModePowerGraph, a)
	var sum float64
	for _, s := range st.SuperstepSeconds {
		sum += s
	}
	if diff := sum - st.ComputeSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("superstep seconds sum %v != compute %v", sum, st.ComputeSeconds)
	}
}
