package partition

import (
	"errors"
	"fmt"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/metrics"
)

// The conformance suite is the registration gate for strategies: one
// table-driven property set executed against EVERY registered strategy on a
// power-law and a road graph. A strategy that registers but violates any of
// these properties — assignment completeness, summary agreement, parallel
// and seed determinism, the incremental contract — fails
// here by construction, without anyone writing a strategy-specific test.
// The paper's 13 and the post-paper families (HEP, JaBeJaSwap, Multilevel)
// are all proven against the same contract; CI runs this suite under -race.

// conformanceParts picks a partition count every strategy accepts: Grid
// needs a perfect square, PDS needs p²+p+1.
func conformanceParts(name string) int {
	if name == "PDS" {
		return 7
	}
	return 9
}

// conformanceOptions pins Loaders to one so the greedy strategies' one-shot
// pass uses the same single loader state the persistent incremental
// assigner does — the configuration under which add-only churn must equal
// one-shot ingress exactly.
func conformanceOptions() Options {
	return Options{HybridThreshold: 30, Loaders: 1}
}

// conformanceCase is one property of the strategy contract.
type conformanceCase struct {
	name string
	run  func(t *testing.T, s Strategy, g *graph.Graph, numParts int)
}

var conformanceSuite = []conformanceCase{
	{"every-edge-once", checkEveryEdgeOnce},
	{"summary-agrees-with-quality", checkSummaryAgreesWithQuality},
	{"parallel-matches-sequential", checkParallelMatchesSequential},
	{"seed-deterministic", checkSeedDeterministic},
	{"incremental-add-only", checkIncrementalAddOnly},
}

func TestConformance(t *testing.T) {
	for _, g := range []*graph.Graph{testGraph(), roadGraph()} {
		// The subtests share g and run in parallel; the graph's lazy
		// adjacency build is not synchronized, so build it once up front.
		g.EnsureCSR()
		for _, name := range AllNames() {
			s := MustNew(name, conformanceOptions())
			numParts := conformanceParts(name)
			for _, c := range conformanceSuite {
				g, s, c := g, s, c
				t.Run(g.Name+"/"+name+"/"+c.name, func(t *testing.T) {
					t.Parallel()
					c.run(t, s, g, numParts)
				})
			}
		}
	}
}

// checkEveryEdgeOnce: the strategy returns exactly one in-range partition
// per edge, the per-partition counts sum back to the edge count, and the
// replication factor lands in [1, numParts].
func checkEveryEdgeOnce(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	a, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeParts) != g.NumEdges() {
		t.Fatalf("%d assignments for %d edges", len(a.EdgeParts), g.NumEdges())
	}
	for i, p := range a.EdgeParts {
		if p < 0 || int(p) >= numParts {
			t.Fatalf("edge %d on partition %d (numParts=%d)", i, p, numParts)
		}
	}
	var total int64
	for _, c := range a.EdgeCount {
		total += c
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("edge counts sum to %d, want %d", total, g.NumEdges())
	}
	if rf := a.ReplicationFactor(); rf < 1 || rf > float64(numParts) {
		t.Fatalf("replication factor %v out of range [1,%d]", rf, numParts)
	}
}

// checkSummaryAgreesWithQuality: the assignment's precomputed Quality
// summary equals an independent accumulator replaying the edge placements
// from scratch — per-partition counts, per-vertex replica sets, totals,
// replication factor and balance.
func checkSummaryAgreesWithQuality(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	a, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	q := metrics.NewQuality(numParts)
	reps := newBitMatrix(n, numParts)
	for i, e := range g.Edges {
		p := int(a.EdgeParts[i])
		q.AddEdge(p)
		reps.set(int(e.Src), p)
		reps.set(int(e.Dst), p)
	}
	for v := 0; v < n; v++ {
		c := reps.count(v)
		if got := a.Replicas(graph.VertexID(v)); got != c {
			t.Fatalf("vertex %d: %d replicas in summary, replay has %d", v, got, c)
		}
		if c == 0 {
			continue
		}
		q.VertexPlaced()
		reps.forEach(v, q.AddReplica)
	}
	for p := 0; p < numParts; p++ {
		if a.EdgeCount[p] != q.EdgesOn(p) {
			t.Errorf("part %d: %d edges in summary, replay has %d", p, a.EdgeCount[p], q.EdgesOn(p))
		}
		if a.ReplicasOnPart(p) != q.ReplicasOnPart(p) {
			t.Errorf("part %d: %d images in summary, replay has %d", p, a.ReplicasOnPart(p), q.ReplicasOnPart(p))
		}
	}
	if a.TotalReplicas() != q.TotalReplicas() {
		t.Errorf("total replicas %d, replay has %d", a.TotalReplicas(), q.TotalReplicas())
	}
	if a.ReplicationFactor() != q.ReplicationFactor() {
		t.Errorf("RF %v, replay has %v", a.ReplicationFactor(), q.ReplicationFactor())
	}
	if a.EdgeBalance() != q.EdgeBalance() {
		t.Errorf("balance %v, replay has %v", a.EdgeBalance(), q.EdgeBalance())
	}
	if a.Quality().NumEdges() != q.NumEdges() {
		t.Errorf("quality edge count %d, replay has %d", a.Quality().NumEdges(), q.NumEdges())
	}
}

// checkParallelMatchesSequential: the one driver at workers 1, 2, 3 and 5
// — Partition is the one-worker call — places every edge, picks every
// master and counts every image exactly as the sequential test-side oracle
// does. Parallelism changes wall-clock, never placement.
func checkParallelMatchesSequential(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	want := buildOracle(t, s, g, numParts, 1)
	seq, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, "Partition", seq, want)
	for _, workers := range []int{1, 2, 3, 5} {
		par, err := ParallelPartition(g, s, numParts, 1, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertMatchesOracle(t, fmt.Sprintf("workers=%d", workers), par, want)
	}
}

// checkSeedDeterministic: identical (graph, numParts, seed) runs produce
// byte-identical placements and masters.
func checkSeedDeterministic(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	for _, seed := range []uint64{1, 42} {
		a1, err := Partition(g, s, numParts, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a2, err := Partition(g, s, numParts, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range a1.EdgeParts {
			if a1.EdgeParts[i] != a2.EdgeParts[i] {
				t.Fatalf("seed %d: edge %d differs between identical runs", seed, i)
			}
		}
		for v := range a1.Masters {
			if a1.Masters[v] != a2.Masters[v] {
				t.Fatalf("seed %d: vertex %d master differs between identical runs", seed, v)
			}
		}
	}
}

// checkIncrementalAddOnly: the strategy either assigns incrementally — in
// which case an add-only churn trace must reproduce one-shot ingress
// exactly — or refuses with ErrNotIncremental (the multi-pass family), in
// which case PartitionState's rebuild fallback must still converge to the
// one-shot summaries.
func checkIncrementalAddOnly(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	inc, err := AsIncremental(s, numParts, 1)
	shape := ShapeOf(s, numParts)
	switch {
	case err != nil:
		if !errors.Is(err, ErrNotIncremental) {
			t.Fatalf("AsIncremental: %v", err)
		}
		if shape.Passes <= 1 {
			t.Fatalf("single-pass strategy refused incremental assignment: %v", err)
		}
	case inc == nil:
		t.Fatal("AsIncremental returned neither an assigner nor an error")
	}
	st, err := NewPartitionState(s, numParts, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	applyTrace(t, st, g, gen.ChurnConfig{Windows: 5, DelFrac: 0, Seed: 7})
	a, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, s.Name(), &st.cutTable, &a.cutTable)
}

// FuzzConformance drives random small edge lists through random registered
// strategies, asserting the conformance invariants never panic: whatever
// the input, a successful Partition assigns every edge exactly once to an
// in-range partition, keeps RF in [1, numParts], and is deterministic for
// its seed. Partition-count rejections (Grid's perfect square, PDS's
// p²+p+1) are valid outcomes, not failures. The seed corpus replays the
// corruption-matrix seed graph's shapes — hubs, duplicate edges, a self
// loop, isolated ids — for every strategy family.
func FuzzConformance(f *testing.F) {
	// The graph loaders' fuzz seed graph, byte-encoded as (src, dst) pairs.
	matrixGraph := []byte{0, 1, 1, 2, 2, 0, 5, 1, 1, 5, 0, 1, 7, 0, 3, 3}
	names := AllNames()
	for i := range names {
		f.Add(matrixGraph, uint8(i), uint8(9), uint64(1))
	}
	f.Add([]byte{}, uint8(0), uint8(9), uint64(1))     // empty graph
	f.Add([]byte{4, 4}, uint8(4), uint8(1), uint64(7)) // lone self loop
	f.Add(matrixGraph, uint8(7), uint8(7), uint64(42)) // PDS-compatible count
	f.Add(matrixGraph[:6], uint8(5), uint8(13), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, stratIdx, parts uint8, seed uint64) {
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(data[i]), Dst: graph.VertexID(data[i+1])})
		}
		g := graph.FromEdges("fuzz", edges)
		name := names[int(stratIdx)%len(names)]
		s := MustNew(name, Options{HybridThreshold: 4, Loaders: 1})
		numParts := int(parts)%13 + 1
		a, err := Partition(g, s, numParts, seed)
		if err != nil {
			return // partition-count rejection: a documented, non-panicking outcome
		}
		if len(a.EdgeParts) != len(edges) {
			t.Fatalf("%s: %d assignments for %d edges", name, len(a.EdgeParts), len(edges))
		}
		var total int64
		for p, c := range a.EdgeCount {
			if c < 0 {
				t.Fatalf("%s: negative edge count on partition %d", name, p)
			}
			total += c
		}
		if total != int64(len(edges)) {
			t.Fatalf("%s: edge counts sum to %d, want %d", name, total, len(edges))
		}
		for i, p := range a.EdgeParts {
			if p < 0 || int(p) >= numParts {
				t.Fatalf("%s: edge %d on partition %d (numParts=%d)", name, i, p, numParts)
			}
		}
		if len(edges) > 0 {
			if rf := a.ReplicationFactor(); rf < 1 || rf > float64(numParts) {
				t.Fatalf("%s: replication factor %v out of range [1,%d]", name, rf, numParts)
			}
		}
		again, err := Partition(g, s, numParts, seed)
		if err != nil {
			t.Fatalf("%s: second run errored: %v", name, err)
		}
		for i := range a.EdgeParts {
			if a.EdgeParts[i] != again.EdgeParts[i] {
				t.Fatalf("%s: edge %d differs between identical runs", name, i)
			}
		}
	})
}
