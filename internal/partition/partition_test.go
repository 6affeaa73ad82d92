package partition

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

func testGraph() *graph.Graph {
	return gen.PrefAttach("test-pa", 2000, 5, 0xbeef)
}

func roadGraph() *graph.Graph {
	return gen.RoadNet("test-road", 40, 40, 0xbeef)
}

// partsIn lists, ascending, the partitions set in one of the word slices
// Assignment.Rows returns.
func partsIn(row []uint64) []int {
	var ps []int
	for wi, w := range row {
		for ; w != 0; w &= w - 1 {
			ps = append(ps, wi*64+bits.TrailingZeros64(w))
		}
	}
	return ps
}

// allStrategies returns one instance of every strategy with parameters
// suitable for the small test graphs.
func allStrategies() []Strategy {
	var out []Strategy
	for _, name := range AllNames() {
		out = append(out, MustNew(name, Options{}))
	}
	return out
}

// TestEveryStrategyAssignsEveryEdge: at default options — several loaders
// for the greedy strategies — Partition places every edge, sets every
// replica bit and picks every master as the oracle does: a master is one of
// the vertex's images, −1 for an isolated vertex.
func TestEveryStrategyAssignsEveryEdge(t *testing.T) {
	g := testGraph()
	for _, s := range allStrategies() {
		numParts := partsFor(s.Name())
		a, err := Partition(g, s, numParts, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		assertMatchesOracle(t, s.Name(), a, buildOracle(t, s, g, numParts, 1))
	}
}

func TestStrategiesDeterministic(t *testing.T) {
	g := testGraph()
	for _, s := range allStrategies() {
		numParts := partsFor(s.Name())
		a1, err := Partition(g, s, numParts, 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		a2, err := Partition(g, s, numParts, 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !slices.Equal(a1.EdgeParts, a2.EdgeParts) {
			t.Fatalf("%s: placements differ between identical runs", s.Name())
		}
	}
}

func TestRandomIsCanonical(t *testing.T) {
	// PowerGraph's Random ignores direction (§5.2.1): (u,v) and (v,u)
	// hash identically.
	g := graph.FromEdges("pair", []graph.Edge{{Src: 3, Dst: 7}, {Src: 7, Dst: 3}})
	a, err := Partition(g, random, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeParts[0] != a.EdgeParts[1] {
		t.Errorf("canonical random split (u,v)/(v,u): %d vs %d", a.EdgeParts[0], a.EdgeParts[1])
	}
}

func TestAsymRandomSplitsSomePairs(t *testing.T) {
	var edges []graph.Edge
	for i := uint32(0); i < 64; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: i + 64}, graph.Edge{Src: i + 64, Dst: i})
	}
	g := graph.FromEdges("pairs", edges)
	a, err := Partition(g, asymRandom, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for i := 0; i < len(edges); i += 2 {
		if a.EdgeParts[i] != a.EdgeParts[i+1] {
			split++
		}
	}
	if split == 0 {
		t.Error("asymmetric random never split a symmetric pair; expected some splits")
	}
}

func TestOneDColocatesOutEdges(t *testing.T) {
	g := testGraph()
	a, err := Partition(g, oneD, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range graph.VertexID(g.NumVertices()) {
		if _, _, out := a.Rows(v); g.OutDegree(v) > 0 && len(partsIn(out)) != 1 {
			t.Fatalf("1D: vertex %d out-edges on partitions %v, want one", v, partsIn(out))
		}
	}
}

func TestOneDTargetColocatesInEdgesWithMaster(t *testing.T) {
	g := testGraph()
	a, err := Partition(g, oneDTarget, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range graph.VertexID(g.NumVertices()) {
		if _, in, _ := a.Rows(v); g.InDegree(v) > 0 && !slices.Equal(partsIn(in), []int{a.Master(v)}) {
			t.Fatalf("1D-Target: vertex %d in-edges on partitions %v, master %d", v, partsIn(in), a.Master(v))
		}
	}
}

func TestGridRequiresPerfectSquare(t *testing.T) {
	g := testGraph()
	if _, err := Partition(g, grid, 10, 1); err == nil {
		t.Fatal("Grid accepted 10 partitions; want error (not a perfect square)")
	}
	if _, err := Partition(g, grid, 9, 1); err != nil {
		t.Fatalf("Grid rejected 9 partitions: %v", err)
	}
}

func TestGridReplicationBound(t *testing.T) {
	// Grid bounds per-vertex replication by 2√P−1 (§5.2.3).
	g := testGraph()
	for _, p := range []int{9, 16, 25} {
		a, err := Partition(g, grid, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		side := 0
		for side*side < p {
			side++
		}
		bound := 2*side - 1
		for v := 0; v < g.NumVertices(); v++ {
			if r := a.Replicas(graph.VertexID(v)); r > bound {
				t.Fatalf("P=%d: vertex %d has %d replicas, bound %d", p, v, r, bound)
			}
		}
	}
}

func TestResilientGridNonSquare(t *testing.T) {
	g := testGraph()
	for _, p := range []int{10, 12, 7} {
		a, err := Partition(g, resilientGrid, p, 3)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		var total int64
		for _, c := range a.EdgeCount {
			total += c
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("P=%d: %d edges assigned", p, total)
		}
	}
}

func TestPerfectDifferenceSet(t *testing.T) {
	for _, n := range []int{7, 13, 21, 31, 57, 73} {
		// 21 and 57 are p²+p+1 for p=4 and p=7... p=4 is not prime (no
		// projective plane of order 4? actually 4=2² is a prime power, a
		// plane exists); verify only that found sets are valid, and that
		// prime-power sizes succeed.
		ds, err := perfectDifferenceSet(n)
		if err != nil {
			if n == 7 || n == 13 || n == 31 || n == 57 || n == 73 || n == 21 {
				t.Fatalf("n=%d: %v", n, err)
			}
			continue
		}
		seen := make([]bool, n)
		for i, a := range ds {
			for j, b := range ds {
				if i == j {
					continue
				}
				d := ((a-b)%n + n) % n
				if seen[d] {
					t.Fatalf("n=%d: difference %d produced twice", n, d)
				}
				seen[d] = true
			}
		}
		for d := 1; d < n; d++ {
			if !seen[d] {
				t.Fatalf("n=%d: difference %d never produced", n, d)
			}
		}
	}
}

func TestPDSReplicationBound(t *testing.T) {
	g := testGraph()
	// P = 7 (p=2): bound p+1 = 3. P = 13 (p=3): bound 4.
	for _, tc := range []struct{ parts, bound int }{{7, 3}, {13, 4}} {
		a, err := Partition(g, pds, tc.parts, 9)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if r := a.Replicas(graph.VertexID(v)); r > tc.bound {
				t.Fatalf("P=%d: vertex %d has %d replicas, bound %d", tc.parts, v, r, tc.bound)
			}
		}
	}
}

func TestPDSRejectsBadCounts(t *testing.T) {
	g := testGraph()
	if _, err := Partition(g, pds, 9, 1); err == nil {
		t.Fatal("PDS accepted 9 partitions")
	}
}

func TestGreedyBeatsRandomOnRF(t *testing.T) {
	// The core qualitative result of §5.4: the greedy heuristics deliver
	// lower replication factors than Random.
	for _, g := range []*graph.Graph{testGraph(), roadGraph()} {
		rnd, err := Partition(g, random, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{oblivious{}, HDRF{}} {
			a, err := Partition(g, s, 16, 2)
			if err != nil {
				t.Fatal(err)
			}
			if a.ReplicationFactor() >= rnd.ReplicationFactor() {
				t.Errorf("%s on %s: RF %.2f ≥ Random's %.2f",
					s.Name(), g.Name, a.ReplicationFactor(), rnd.ReplicationFactor())
			}
		}
	}
}

func TestAsymRandomWorseThanRandom(t *testing.T) {
	// §8.2.2: Asymmetric Random yields even higher replication factors
	// than Random. Needs symmetric edges to matter; road nets have them
	// all.
	g := roadGraph()
	rnd, _ := Partition(g, random, 16, 2)
	asym, _ := Partition(g, asymRandom, 16, 2)
	if asym.ReplicationFactor() <= rnd.ReplicationFactor() {
		t.Errorf("AsymRandom RF %.3f ≤ Random RF %.3f; paper says strictly worse",
			asym.ReplicationFactor(), rnd.ReplicationFactor())
	}
}

func TestHybridLowDegreeMastersLocal(t *testing.T) {
	g := testGraph()
	thr := 30
	a, err := Partition(g, hybrid{threshold: thr}, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if g.InDegree(vid) == 0 || g.InDegree(vid) > thr {
			continue
		}
		if _, in, _ := a.Rows(vid); !slices.Equal(partsIn(in), []int{a.Master(vid)}) {
			t.Fatalf("Hybrid: low-degree vertex %d (in-deg %d) in-edges on partitions %v, master %d",
				v, g.InDegree(vid), partsIn(in), a.Master(vid))
		}
	}
}

func TestHybridBalance(t *testing.T) {
	g := testGraph()
	a, err := Partition(g, hybrid{threshold: 30}, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b := a.EdgeBalance(); b > 3 {
		t.Errorf("Hybrid edge balance %v; want < 3", b)
	}
}

func TestGingerNotWorseThanHybridRF(t *testing.T) {
	// §6.4.4: H-Ginger delivers slightly better replication factor than
	// Hybrid (at high ingress cost). Allow equality.
	g := testGraph()
	hy, _ := Partition(g, hybrid{threshold: 30}, 9, 4)
	gi, _ := Partition(g, hybridGinger{threshold: 30}, 9, 4)
	if gi.ReplicationFactor() > hy.ReplicationFactor()*1.02 {
		t.Errorf("H-Ginger RF %.3f notably worse than Hybrid RF %.3f",
			gi.ReplicationFactor(), hy.ReplicationFactor())
	}
}

// TestReplicationFactorProperty: for arbitrary small graphs under Random,
// the replica bits, the counts and the RF drawn from them are the oracle's,
// which puts an image of both endpoints wherever an edge lives.
func TestReplicationFactorProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(raw[i] % 128), Dst: graph.VertexID(raw[i+1] % 128)})
		}
		g := graph.FromEdges("q", edges)
		a, err := Partition(g, random, 5, 1)
		if err != nil {
			return false
		}
		assertMatchesOracle(t, "Random", a, buildOracle(t, random, g, 5, 1))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemStrategies(t *testing.T) {
	// Table 1.1 inventory.
	cases := map[System]int{
		PowerGraph:   5,
		PowerLyra:    6,
		GraphX:       4,
		PowerLyraAll: 10,
		GraphXAll:    9,
	}
	for sys, want := range cases {
		names, err := SystemStrategies(sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != want {
			t.Errorf("%s: %d strategies, want %d (%v)", sys, len(names), want, names)
		}
		for _, n := range names {
			if _, err := New(n, Options{}); err != nil {
				t.Errorf("%s: strategy %q not constructible: %v", sys, n, err)
			}
		}
	}
	if _, err := SystemStrategies(System("nope")); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestNewUnknownStrategy(t *testing.T) {
	if _, err := New("Metis", Options{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestEdgeBalanceBounds(t *testing.T) {
	g := testGraph()
	for _, s := range []Strategy{random, oneD, twoD, grid} {
		a, err := Partition(g, s, 9, 8)
		if err != nil {
			t.Fatal(err)
		}
		if b := a.EdgeBalance(); b < 1 {
			t.Errorf("%s: balance %v < 1", s.Name(), b)
		}
	}
}
