package app

import (
	"math"
	"slices"
	"testing"

	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/oracle"
	"graphpart/internal/partition"
)

func partitioned(t *testing.T, g *graph.Graph, strategy string, parts int) *partition.Assignment {
	t.Helper()
	s := partition.MustNew(strategy, partition.Options{})
	a, err := partition.Partition(g, s, parts, 7)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"road": gen.RoadNet("road", 25, 25, 0x11),
		"pa":   gen.PrefAttach("pa", 1200, 5, 0x22),
	}
}

var testModel = cluster.DefaultModel()

// near allows the last bits the oracle's edge-list summation order may
// move. The oracle's damping and tolerance are written out below, not read
// from this package, so a drift in DefaultDamping or DefaultTolerance is
// caught.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*b }

func TestPageRankMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		ref := oracle.PageRank(g.NumVertices(), g.Edges, 0.85, 1e-3, 500, true)
		for _, strategy := range []string{"Random", "Oblivious", "Hybrid"} {
			a := partitioned(t, g, strategy, 9)
			for _, mode := range []engine.Mode{engine.ModePowerGraph, engine.ModePowerLyra} {
				out, err := engine.Run[float64, float64](mode, PageRank{}, a, cluster.Local9, testModel,
					engine.Options{MaxSupersteps: 500})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Stats.Converged {
					t.Fatalf("%s/%s mode %d: did not converge", name, strategy, mode)
				}
				if !slices.EqualFunc(out.Values, ref, near) {
					t.Fatalf("%s/%s mode %d: ranks differ from the oracle's", name, strategy, mode)
				}
			}
		}
	}
}

func TestPageRankFixedIterations(t *testing.T) {
	g := testGraphs()["pa"]
	a := partitioned(t, g, "Random", 9)
	out, err := engine.Run[float64, float64](engine.ModePowerGraph, PageRank{}, a, cluster.Local9, testModel,
		engine.Options{FixedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Supersteps != 10 {
		t.Fatalf("ran %d supersteps, want 10", out.Stats.Supersteps)
	}
	if !slices.EqualFunc(out.Values, oracle.PageRank(g.NumVertices(), g.Edges, 0.85, 1e-3, 10, false), near) {
		t.Fatal("ranks differ from the oracle's")
	}
}

func TestPageRankIsNatural(t *testing.T) {
	if !engine.Natural[float64, float64](PageRank{}) {
		t.Error("PageRank must be natural (gathers In, scatters Out)")
	}
	if engine.Natural[uint32, uint32](WCC{}) {
		t.Error("WCC must not be natural")
	}
}

func TestWCCMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		a := partitioned(t, g, "Grid", 9)
		out, err := engine.Run[uint32, uint32](engine.ModePowerGraph, WCC{}, a, cluster.Local9, testModel,
			engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Stats.Converged {
			t.Fatalf("%s: WCC did not converge", name)
		}
		if !slices.Equal(out.Values, oracle.WCC(g.NumVertices(), g.Edges)) {
			t.Fatalf("%s: labels differ from the oracle's", name)
		}
	}
}

func TestSSSPMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		for _, directed := range []bool{false, true} {
			a := partitioned(t, g, "HDRF", 9)
			prog := SSSP{Source: 0, Directed: directed}
			out, err := engine.Run[float64, float64](engine.ModePowerGraph, prog, a, cluster.Local9, testModel,
				engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Stats.Converged {
				t.Fatalf("%s directed=%v: SSSP did not converge", name, directed)
			}
			if !slices.Equal(out.Values, oracle.BFS(g.NumVertices(), g.Edges, 0, directed)) {
				t.Fatalf("%s directed=%v: distances differ from the oracle's", name, directed)
			}
		}
	}
}

// TestSSSPSumIsMathMin: SSSP combines distances with nearer, the builtin min,
// which inlines where math.Min is an out-of-line call; the two must agree bit
// for bit on signed zeros and infinities, or SSSP's distances could move. A
// NaN operand gives NaN from both; which NaN is the one place they differ
// (min(-0, NaN) keeps the sign bit), and no distance is ever NaN: +Inf + 1 is
// +Inf.
func TestSSSPSumIsMathMin(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN()}
	for _, a := range xs {
		for _, b := range xs {
			got, want := nearer(a, b), math.Min(a, b)
			if math.IsNaN(got) && math.IsNaN(want) {
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("nearer(%v, %v) = %v (%#x), math.Min gives %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestSSSPDirectedIsNatural(t *testing.T) {
	if !engine.Natural[float64, float64](SSSP{Directed: true}) {
		t.Error("directed SSSP should be natural")
	}
	if engine.Natural[float64, float64](SSSP{}) {
		t.Error("undirected SSSP must not be natural (§6.4.1)")
	}
}

func TestKCoreMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		a := partitioned(t, g, "Random", 9)
		kmin, kmax := 3, 6
		core, stats, err := KCoreDecomposition(engine.ModePowerGraph, kmin, kmax, a, cluster.Local9, testModel,
			engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("%s: k-core did not converge", name)
		}
		if !slices.Equal(core, oracle.KCore(g.NumVertices(), g.Edges, kmin, kmax)) {
			t.Fatalf("%s: core numbers differ from the oracle's", name)
		}
	}
}

func TestColoringIsProper(t *testing.T) {
	for name, g := range testGraphs() {
		a := partitioned(t, g, "Oblivious", 9)
		out, err := engine.Run[int32, ColorSet](engine.ModePowerGraph, Coloring{}, a, cluster.Local9, testModel,
			engine.Options{MaxSupersteps: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Stats.Converged {
			t.Fatalf("%s: coloring did not converge", name)
		}
		if !oracle.ProperColoring(g.Edges, out.Values) {
			t.Fatalf("%s: invalid coloring", name)
		}
		// Colors should be reasonably small (bounded by max degree + 1).
		maxColor := int32(0)
		for _, c := range out.Values {
			if c > maxColor {
				maxColor = c
			}
		}
		if maxDeg := graph.Classify(g).MaxDegree; int(maxColor) > maxDeg {
			t.Errorf("%s: used %d colors, max degree %d", name, maxColor+1, maxDeg)
		}
	}
}

func TestColorSetOps(t *testing.T) {
	var s ColorSet
	s = s.Add(0).Add(63).Add(64).Add(130)
	for _, c := range []int32{0, 63, 64, 130} {
		if !s.Has(c) {
			t.Errorf("set missing %d", c)
		}
	}
	if s.Has(1) || s.Has(65) {
		t.Error("set has spurious members")
	}
	if got := s.smallestFree(); got != 1 {
		t.Errorf("smallestFree = %d, want 1", got)
	}
	other := ColorSet{}.Add(1).Add(2)
	u := s.Union(other)
	for _, c := range []int32{0, 1, 2, 63, 64, 130} {
		if !u.Has(c) {
			t.Errorf("union missing %d", c)
		}
	}
	full := ColorSet{}.Add(0).Add(1).Add(2)
	if got := full.smallestFree(); got != 3 {
		t.Errorf("smallestFree = %d, want 3", got)
	}
}

func TestEngineRejectsMismatchedCluster(t *testing.T) {
	g := testGraphs()["pa"]
	a := partitioned(t, g, "Random", 9)
	_, err := engine.Run[float64, float64](engine.ModePowerGraph, PageRank{}, a, cluster.EC2x16, testModel,
		engine.Options{})
	if err == nil {
		t.Fatal("engine accepted 9-partition assignment on 16-machine cluster")
	}
}

func TestStatsPopulated(t *testing.T) {
	g := testGraphs()["pa"]
	a := partitioned(t, g, "Random", 9)
	out, err := engine.Run[float64, float64](engine.ModePowerGraph, PageRank{}, a, cluster.Local9, testModel,
		engine.Options{FixedIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if st.ComputeSeconds <= 0 {
		t.Error("ComputeSeconds not positive")
	}
	if st.AvgNetInGB <= 0 {
		t.Error("AvgNetInGB not positive")
	}
	if st.PeakMemGB <= 0 {
		t.Error("PeakMemGB not positive")
	}
	if len(st.CPUUtil) != 9 {
		t.Errorf("CPUUtil has %d entries, want 9", len(st.CPUUtil))
	}
	for m, u := range st.CPUUtil {
		if u <= 0 || u > 1 {
			t.Errorf("machine %d utilization %v out of (0,1]", m, u)
		}
	}
	if len(st.SuperstepSeconds) != 5 {
		t.Errorf("SuperstepSeconds has %d entries, want 5", len(st.SuperstepSeconds))
	}
}
