package partition

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// The conformance suite is the gate for strategies: one table-driven
// property set executed against EVERY row of the strategies table on a
// power-law and a road graph. A strategy that has a row but violates any of
// these properties — placements and summary equal to the oracle's at every
// worker count, seed determinism, the incremental contract — fails
// here by construction, without anyone writing a strategy-specific test.
// The paper's 13 and the post-paper families (HEP, JaBeJaSwap, Multilevel)
// are all proven against the same contract; CI runs this suite under -race.

// conformanceOptions pins Loaders to one so the greedy strategies' one-shot
// pass uses the same single loader state the persistent incremental
// assigner does — the configuration under which add-only churn must equal
// one-shot ingress exactly.
func conformanceOptions() Options {
	return Options{Loaders: 1}
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
	// Serial, so it runs before the parallel rows start: AllocsPerRun counts
	// every goroutine's allocations.
	for _, name := range AllNames() {
		t.Run(name+"/built-by-name", func(t *testing.T) { checkBuiltByName(t, name) })
	}
	for _, g := range []*graph.Graph{testGraph(), roadGraph()} {
		// The subtests share g and run in parallel; the graph's lazy
		// adjacency build is not synchronized, so build it once up front.
		g.EnsureCSR()
		for _, name := range AllNames() {
			s := MustNew(name, conformanceOptions())
			numParts := partsFor(name)
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

// forEach calls fn for every set column in a row, in ascending order, one
// bit at a time: the walk chooseMaster's broadword select must agree with.
func (m *bitMatrix) forEach(row int, fn func(col int)) {
	for wi, w := range m.row(row) {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// TestSelectBitMatchesForEach pins chooseMaster's broadword select to the
// bit-by-bit walk: for words of every density, including all-ones and the
// top bit alone, the k-th set column forEach visits is selectBit(x, k).
func TestSelectBitMatchesForEach(t *testing.T) {
	m := newBitMatrix(1, 64)
	words := []uint64{1, 1 << 63, ^uint64(0), 0x8000000000000001, 0xff00}
	for i := uint64(0); i < 20000; i++ {
		h := hashing.Mix64(i)
		words = append(words, h, h&hashing.Mix64(^i), h&0xffff, h>>uint(i%64))
	}
	for _, x := range words {
		m.bits[0] = x
		k := 0
		m.forEach(0, func(col int) {
			if got := selectBit(x, k); got != col {
				t.Fatalf("selectBit(%#x, %d) = %d, want %d", x, k, got, col)
			}
			k++
		})
	}
}

// checkBuiltByName: the strategies table is the only construction path, so
// a strategy prints the name that builds it and implements exactly one
// ingress capability, and building a stateless one allocates nothing (the
// service builds one per request).
func checkBuiltByName(t *testing.T, name string) {
	s := MustNew(name, conformanceOptions())
	if got := s.Name(); got != name {
		t.Fatalf("New(%q).Name() = %q", name, got)
	}
	if caps := ingressCapabilities(s); len(caps) != 1 {
		t.Errorf("New(%q) implements %v, want exactly one ingress capability", name, caps)
	}
	if _, ok := s.(StatelessStrategy); !ok {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = New(name, Options{}) }); allocs != 0 {
		t.Errorf("New(%q) allocates %v times per call, want 0", name, allocs)
	}
}

// ingressCapabilities names the capability interfaces s implements. ShapeOf,
// the stream builders and AsIncremental dispatch on exactly one.
func ingressCapabilities(s Strategy) []string {
	var have []string
	if _, ok := s.(StatelessStrategy); ok {
		have = append(have, "StatelessStrategy")
	}
	if _, ok := s.(StreamingStrategy); ok {
		have = append(have, "StreamingStrategy")
	}
	if _, ok := s.(MultiPassStrategy); ok {
		have = append(have, "MultiPassStrategy")
	}
	return have
}

// twoCapRow is a hash row that also declares a multi-pass shape: a table
// row built like it fails the built-by-name property.
type twoCapRow struct{ *hashStrategy }

func (twoCapRow) MultiPass() (passes, heuristicPasses int, why string) { return 2, 1, "" }

func TestIngressCapabilitiesCountsEach(t *testing.T) {
	if got := ingressCapabilities(twoCapRow{random}); !slices.Equal(got, []string{"StatelessStrategy", "MultiPassStrategy"}) {
		t.Errorf("hash row with a MultiPass method: %v", got)
	}
	if got := ingressCapabilities(noCapStrategy{}); len(got) != 0 {
		t.Errorf("capability-less strategy: %v", got)
	}
}

// checkEveryEdgeOnce: Partition — the one-worker call of the one driver —
// places every edge where the test-side oracle does. The oracle refuses a
// partition out of range and counts each edge once.
func checkEveryEdgeOnce(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	a, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertPlacedAsOracle(t, "Partition", a, buildOracle(t, s, g, numParts, 1))
}

// checkSummaryAgreesWithQuality: Partition's summary — masters, replicas,
// edges and images per partition, totals, RF and balance — is the one the
// oracle counts in plain slices from the same placements.
func checkSummaryAgreesWithQuality(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	a, err := Partition(g, s, numParts, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := buildOracle(t, s, g, numParts, 1)
	assertTablesEqual(t, "Partition", viewOf(&a.cutTable, len(o.Masters)), cutView(o))
}

// checkParallelMatchesSequential: the one driver at workers 2, 3 and 5
// places every edge, picks every master and counts every image exactly as
// the oracle does. Parallelism changes wall-clock, never placement.
func checkParallelMatchesSequential(t *testing.T, s Strategy, g *graph.Graph, numParts int) {
	want := buildOracle(t, s, g, numParts, 1)
	for _, workers := range []int{2, 3, 5} {
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
		if !slices.Equal(a1.EdgeParts, a2.EdgeParts) || !slices.Equal(a1.Masters, a2.Masters) {
			t.Fatalf("seed %d: placements or masters differ between identical runs", seed)
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
// the input, a successful Partition — and a second run with the same seed —
// places every edge and counts every image as the oracle does. Partition-count rejections (Grid's perfect square, PDS's
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
		want := buildOracle(t, s, g, numParts, seed)
		assertMatchesOracle(t, name, a, want)
		again, err := Partition(g, s, numParts, seed)
		if err != nil {
			t.Fatalf("%s: second run errored: %v", name, err)
		}
		assertMatchesOracle(t, name+" again", again, want)
	})
}
