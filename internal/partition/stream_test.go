package partition

import (
	"errors"
	"fmt"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// feedInBatches pushes a graph's edge list through the stream builder in
// batches of the given size, reusing one buffer exactly as graph.StreamFile
// does.
func feedInBatches(t *testing.T, sb *ShardedStreamBuilder, g *graph.Graph, batchSize int) {
	t.Helper()
	buf := make([]graph.Edge, 0, batchSize)
	offset := int64(0)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if err := sb.Feed(EdgeBatch{Offset: offset, Edges: buf}); err != nil {
			t.Fatal(err)
		}
		offset += int64(len(buf))
		buf = buf[:0]
	}
	for _, e := range g.Edges {
		buf = append(buf, e)
		if len(buf) == batchSize {
			flush()
		}
	}
	flush()
}

// streamSummary runs one whole stream ingress of g.
func streamSummary(t *testing.T, s Strategy, g *graph.Graph, numParts, workers, batchSize int, seed uint64) *StreamSummary {
	t.Helper()
	sb, err := NewShardedStreamBuilder(s, numParts, workers, seed)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	feedInBatches(t, sb, g, batchSize)
	sum, err := sb.Finish()
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if sum.NumEdges != int64(g.NumEdges()) || sum.NumVertices != g.NumVertices() {
		t.Fatalf("%s: streamed sizes |V|=%d |E|=%d, want %d/%d",
			s.Name(), sum.NumVertices, sum.NumEdges, g.NumVertices(), g.NumEdges())
	}
	return sum
}

// TestStreamMatchesMaterialized asserts that the memory-bounded stream
// ingress fills the same table as the materialized Partition path for every
// stateless strategy, whatever the batch size: edge counts, masters,
// replica totals, replication factor and balance.
func TestStreamMatchesMaterialized(t *testing.T) {
	g := gen.PrefAttach("stream", 3000, 5, 0x71)
	for _, name := range AllNames() {
		s := MustNew(name, Options{})
		if _, ok := s.(StatelessStrategy); !ok {
			continue
		}
		parts := partsFor(name)
		want, err := Partition(g, s, parts, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, batchSize := range []int{1, 97, 4096} {
			got := streamSummary(t, s, g, parts, 1, batchSize, 9)
			assertSameTable(t, fmt.Sprintf("%s/batch=%d", name, batchSize), &got.cutTable, &want.cutTable)
		}
	}
}

// TestStreamBuilderRejectsStateful documents that the greedy and multi-pass
// families do not satisfy the stateless capability (the compiler enforces
// it; this guards against someone "helpfully" adding NewAssigner to them).
func TestStreamBuilderRejectsStateful(t *testing.T) {
	for _, name := range []string{"Oblivious", "HDRF", "Hybrid", "H-Ginger"} {
		if _, ok := MustNew(name, Options{}).(StatelessStrategy); ok {
			t.Errorf("%s claims to be stateless; its placement depends on stream order/state", name)
		}
	}
}

func TestStreamBuilderEmpty(t *testing.T) {
	sb, err := NewShardedStreamBuilder(random, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumEdges != 0 || sum.NumVertices != 0 {
		t.Fatalf("empty stream: |V|=%d |E|=%d", sum.NumVertices, sum.NumEdges)
	}
	if rf := sum.ReplicationFactor(); rf != 0 {
		t.Fatalf("empty stream RF = %v", rf)
	}
	if bal := sum.EdgeBalance(); bal != 1 {
		t.Fatalf("empty stream balance = %v", bal)
	}
}

func TestStreamBuilderBadParts(t *testing.T) {
	if _, err := NewShardedStreamBuilder(random, 0, 1, 1); err == nil {
		t.Error("numParts=0 accepted")
	}
	// Grid propagates its perfect-square constraint through NewAssigner.
	if _, err := NewShardedStreamBuilder(grid, 8, 1, 1); err == nil {
		t.Error("Grid with non-square parts accepted")
	}
}

// TestShapeOf pins the capability-derived ingress shape of every registered
// strategy — the two facts the ingress models price (passes, heuristic
// passes) plus loaders and the multi-pass reason — at two partition counts.
func TestShapeOf(t *testing.T) {
	hash := func(int) IngressShape { return IngressShape{Passes: 1, Streaming: true} }
	greedy := func(parts int) IngressShape {
		return IngressShape{Passes: 1, HeuristicPasses: 1, Streaming: true, Loaders: parts}
	}
	multi := func(passes, heuristic int, why string) func(int) IngressShape {
		return func(int) IngressShape {
			return IngressShape{Passes: passes, HeuristicPasses: heuristic, MultiPassReason: why}
		}
	}
	want := map[string]func(parts int) IngressShape{
		"1D":              hash,
		"1D-Target":       hash,
		"2D":              hash,
		"AsymRandom":      hash,
		"CanonicalRandom": hash,
		"Grid":            hash,
		"PDS":             hash,
		"Random":          hash,
		"ResilientGrid":   hash,
		"HDRF":            greedy,
		"Oblivious":       greedy,
		"Hybrid":          multi(2, 0, "needs a full degree-counting scan before any edge can be placed (§6.2.1)"),
		"H-Ginger":        multi(3, 3, "hybrid's degree-counting scan plus a Fennel-style refinement sweep over vertex homes (§6.2.2)"),
		"HEP":             multi(2, 1, "needs a degree census to split the low-degree core (in-memory NE) from the high-degree spill (streamed HDRF) under the memory budget"),
		"JaBeJaSwap":      multi(5, 0, "refines a completed base assignment with whole-edge-list swap rounds; no edge's final home is known until the last round ends"), // Random's 1 pass + 4 swap rounds
		"Multilevel":      multi(3, 1, "coarsens the whole graph by heavy-edge matching, partitions the coarse graph, and projects labels back through refinement sweeps — offline by construction"),
	}
	names := AllNames()
	if len(names) != len(want) {
		t.Errorf("%d registered strategies, %d pinned shapes", len(names), len(want))
	}
	for _, name := range names {
		shapeAt, ok := want[name]
		if !ok {
			t.Errorf("%s: registered but its ingress shape is not pinned here", name)
			continue
		}
		for _, parts := range []int{16, 9} {
			if got := ShapeOf(MustNew(name, Options{}), parts); got != shapeAt(parts) {
				t.Errorf("%s at %d parts: shape %+v, want %+v", name, parts, got, shapeAt(parts))
			}
		}
	}
}

// noCapStrategy implements only the base Strategy interface — none of the
// ingress capabilities. No table row builds one, but a caller may hand one in.
type noCapStrategy struct{}

func (noCapStrategy) Name() string { return "NoCap" }
func (noCapStrategy) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return &Result{EdgeParts: make([]int32, g.NumEdges())}, nil
}

// TestCapabilitylessStrategyRefused: a strategy with no ingress capability
// has no ingress shape and would dodge every stream builder, so
// ParallelPartition refuses it with the named ErrNoIngressCapability.
func TestCapabilitylessStrategyRefused(t *testing.T) {
	if shape := ShapeOf(noCapStrategy{}, 4); shape != (IngressShape{}) {
		t.Errorf("capability-less strategy has shape %+v, want the zero shape", shape)
	}
	if _, err := Partition(testGraph(), noCapStrategy{}, 4, 1); !errors.Is(err, ErrNoIngressCapability) {
		t.Errorf("Partition with a capability-less strategy: %v, want ErrNoIngressCapability", err)
	}
}
