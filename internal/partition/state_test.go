package partition

import (
	"errors"
	"strings"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// applyTrace drives a PartitionState through a churn trace over g's edges
// and returns the surviving edge set.
func applyTrace(t *testing.T, st *PartitionState, g *graph.Graph, cfg gen.ChurnConfig) []graph.Edge {
	t.Helper()
	survivors, err := gen.ChurnTrace(g.Edges, cfg, func(w gen.ChurnWindow) error {
		_, err := st.ApplyBatch(gen.Edges(w.Adds), gen.Edges(w.Dels))
		return err
	})
	if err != nil {
		t.Fatalf("churn trace: %v", err)
	}
	return survivors
}

// TestIncrementalMatchesOneShotAddOnly is the acceptance property: an
// add-only churn trace through PartitionState yields summaries identical to
// the one-shot path for every registered strategy. Greedy strategies pin
// Loaders:1 so the one-shot pass uses the same single loader state the
// persistent incremental assigner does.
func TestIncrementalMatchesOneShotAddOnly(t *testing.T) {
	g := testGraph()
	for _, name := range AllNames() {
		s := MustNew(name, Options{HybridThreshold: 30, Loaders: 1})
		numParts := 9
		if name == "PDS" {
			numParts = 7
		}
		st, err := NewPartitionState(s, numParts, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		applyTrace(t, st, g, gen.ChurnConfig{Windows: 5, DelFrac: 0, Seed: 7})
		a, err := Partition(g, s, numParts, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameTable(t, name, &st.cutTable, &a.cutTable)
	}
}

// TestStatelessChurnEquivalence is the satellite property test: after an
// arbitrary add/delete trace, the state's summaries equal a one-shot
// partitioning of the surviving edge set, for every stateless strategy,
// across seeds and rebuild worker counts.
func TestStatelessChurnEquivalence(t *testing.T) {
	g := testGraph()
	for _, s := range allStrategies() {
		ss, ok := s.(StatelessStrategy)
		if !ok {
			continue
		}
		numParts := 9
		if s.Name() == "PDS" {
			numParts = 7
		}
		for _, seed := range []uint64{1, 42} {
			for _, workers := range []int{1, 4} {
				st, err := NewPartitionState(ss, numParts, seed, workers)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				survivors := applyTrace(t, st, g, gen.ChurnConfig{Windows: 6, DelFrac: 0.3, Seed: seed})
				lg := graph.FromEdges("survivors", survivors)
				a, err := ParallelPartition(lg, ss, numParts, seed, workers)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				label := s.Name()
				assertSameTable(t, label, &st.cutTable, &a.cutTable)
			}
		}
	}
}

// TestMultiPassChurnEquivalence: multi-pass strategies absorb churn by
// repartitioning the live set per batch, so after any trace they too must
// match the one-shot partitioning of the state's live edge list. The live
// list — not the trace's survivor list — is the reference: deletions swap
// edges from the tail, and order-dependent strategies (HEP's streamed
// spill, JaBeJaSwap's indexed swap partners, Multilevel's load-aware cut
// split) legitimately place a permuted edge list differently.
func TestMultiPassChurnEquivalence(t *testing.T) {
	g := testGraph()
	for _, s := range allStrategies() {
		if _, ok := s.(MultiPassStrategy); !ok {
			continue
		}
		st, err := NewPartitionState(s, 9, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if st.Incremental() {
			t.Fatalf("%s: multi-pass strategy claims incremental support", s.Name())
		}
		survivors := applyTrace(t, st, g, gen.ChurnConfig{Windows: 4, DelFrac: 0.2, Seed: 3})
		if int64(len(survivors)) != st.NumEdges() {
			t.Fatalf("%s: %d live edges, trace left %d", s.Name(), st.NumEdges(), len(survivors))
		}
		lg := graph.FromEdges("survivors", st.LiveEdges())
		a, err := ParallelPartition(lg, s, 9, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		assertSameTable(t, s.Name(), &st.cutTable, &a.cutTable)
	}
}

// TestGreedyIncrementalBoundedDrift: under deletions the persistent greedy
// loader's placements may drift from a from-scratch pass, but the state's
// own bookkeeping must stay exact (counts sum to live edges) and quality
// must stay in sane bounds.
func TestGreedyIncrementalBoundedDrift(t *testing.T) {
	g := testGraph()
	for _, name := range []string{"Oblivious", "HDRF"} {
		s := MustNew(name, Options{Loaders: 1})
		st, err := NewPartitionState(s, 9, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		survivors := applyTrace(t, st, g, gen.ChurnConfig{Windows: 6, DelFrac: 0.3, Seed: 11})
		if st.NumEdges() != int64(len(survivors)) {
			t.Fatalf("%s: %d live edges, trace left %d", name, st.NumEdges(), len(survivors))
		}
		var total int64
		for p := 0; p < st.NumParts(); p++ {
			total += st.EdgeCount()[p]
		}
		if total != st.NumEdges() {
			t.Fatalf("%s: edge counts sum to %d, want %d", name, total, st.NumEdges())
		}
		if rf := st.ReplicationFactor(); rf < 1 || rf > 9 {
			t.Fatalf("%s: replication factor %v out of range", name, rf)
		}
	}
}

func TestApplyBatchRejectsUnknownDelete(t *testing.T) {
	st, err := NewPartitionState(MustNew("Random", Options{}), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch([]graph.Edge{{Src: 0, Dst: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	_, err = st.ApplyBatch(nil, []graph.Edge{{Src: 1, Dst: 0}})
	if err == nil || !strings.Contains(err.Error(), "not live") {
		t.Fatalf("deleting a non-live edge: got %v, want 'not live' error", err)
	}
}

func TestDuplicateEdgesDeleteOneCopy(t *testing.T) {
	st, err := NewPartitionState(MustNew("Random", Options{}), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := graph.Edge{Src: 2, Dst: 5}
	if _, err := st.ApplyBatch([]graph.Edge{e, e, e}, nil); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != 3 {
		t.Fatalf("3 copies added, %d live", st.NumEdges())
	}
	if _, err := st.ApplyBatch(nil, []graph.Edge{e}); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != 2 {
		t.Fatalf("one copy deleted, %d live (want 2)", st.NumEdges())
	}
	if st.Replicas(2) == 0 || st.Replicas(5) == 0 {
		t.Fatal("endpoints lost their images while copies remain")
	}
	if _, err := st.ApplyBatch(nil, []graph.Edge{e, e}); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != 0 || st.Replicas(2) != 0 || st.Master(2) != -1 {
		t.Fatalf("all copies deleted: %d live, %d replicas, master %d", st.NumEdges(), st.Replicas(2), st.Master(2))
	}
}

func TestRebalanceBringsBalanceUnderThreshold(t *testing.T) {
	// 1D hashes by source, so a hub-heavy power-law graph loads a few
	// partitions far beyond the mean.
	g := gen.PowerLaw("pl", gen.PowerLawConfig{N: 3000, Alpha: 1.7, MinD: 2, MaxD: 600, Seed: 5})
	st, err := NewPartitionState(MustNew("1D", Options{}), 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	applyTrace(t, st, g, gen.ChurnConfig{Windows: 1, DelFrac: 0, Seed: 1})
	maxBalance := 1.1
	if !st.NeedsRebalance(maxBalance) {
		t.Skipf("graph not imbalanced enough to exercise rebalance (balance %v)", st.EdgeBalance())
	}
	stats := st.Rebalance(maxBalance)
	if stats.Moved == 0 {
		t.Fatal("rebalance moved nothing despite imbalance")
	}
	if stats.BalanceAfter > maxBalance+0.05 {
		t.Fatalf("balance %v after rebalance, want ≤ ~%v", stats.BalanceAfter, maxBalance)
	}
	if st.NeedsRebalance(maxBalance) {
		t.Fatalf("still needs rebalance after pass: balance %v", st.EdgeBalance())
	}
	// The bookkeeping must survive migration intact.
	var total int64
	for p := 0; p < st.NumParts(); p++ {
		total += st.EdgeCount()[p]
	}
	if total != st.NumEdges() {
		t.Fatalf("edge counts sum to %d after rebalance, want %d", total, st.NumEdges())
	}
}

func TestHotReplicationPinsAndReleases(t *testing.T) {
	g := testGraph()
	st, err := NewPartitionState(MustNew("HDRF", Options{Loaders: 1}), 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.SetHotReplication(16)
	applyTrace(t, st, g, gen.ChurnConfig{Windows: 4, DelFrac: 0.1, Seed: 2})
	hot := 0
	for v := 0; v < st.NumVertices(); v++ {
		if st.Replicas(graph.VertexID(v)) == 8 {
			hot++
		}
	}
	if hot < 16 {
		t.Fatalf("%d vertices fully replicated, want ≥16 hot pins", hot)
	}
	// Disabling drops every pinned image no live edge sustains.
	st.SetHotReplication(0)
	for v := 0; v < st.NumVertices(); v++ {
		reps := st.Replicas(graph.VertexID(v))
		if st.Degree(graph.VertexID(v)) == 0 && reps != 0 {
			t.Fatalf("vertex %d has %d images with no live edges after unpin", v, reps)
		}
	}
	var total int64
	for p := 0; p < st.NumParts(); p++ {
		total += st.EdgeCount()[p]
	}
	if total != st.NumEdges() {
		t.Fatalf("edge counts sum to %d, want %d", total, st.NumEdges())
	}
}

// TestRebalanceNewFamilies: the migration pass never touches the assigner,
// so it must also hold for the added multi-pass families — including
// JaBeJaSwap, whose swap refinement preserves per-partition loads and so
// inherits whatever imbalance its base left. After Rebalance the balance
// must sit at or under MaxBalance and the bookkeeping must stay coherent.
func TestRebalanceNewFamilies(t *testing.T) {
	g := gen.PowerLaw("pl", gen.PowerLawConfig{N: 3000, Alpha: 1.7, MinD: 2, MaxD: 600, Seed: 5})
	for _, name := range []string{"HEP", "JaBeJaSwap", "Multilevel"} {
		t.Run(name, func(t *testing.T) {
			st, err := NewPartitionState(MustNew(name, Options{}), 8, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			applyTrace(t, st, g, gen.ChurnConfig{Windows: 2, DelFrac: 0.05, Seed: 3})
			maxBalance := 1.05
			before := st.EdgeBalance()
			stats := st.Rebalance(maxBalance)
			if st.NeedsRebalance(maxBalance) {
				t.Fatalf("balance %v after rebalance (before %v, moved %d), want ≤ %v",
					st.EdgeBalance(), before, stats.Moved, maxBalance)
			}
			if before > maxBalance && stats.Moved == 0 {
				t.Fatalf("balance %v over threshold yet rebalance moved nothing", before)
			}
			var total int64
			for p := 0; p < st.NumParts(); p++ {
				total += st.EdgeCount()[p]
			}
			if total != st.NumEdges() {
				t.Fatalf("edge counts sum to %d after rebalance, want %d", total, st.NumEdges())
			}
			if rf := st.ReplicationFactor(); rf < 1 || rf > stats.RFBefore+0.5 {
				t.Fatalf("RF %v after rebalance (before %v): migration should prefer resident endpoints",
					rf, stats.RFBefore)
			}
		})
	}
}

// TestHotReplicationNewFamilies: hot-vertex pinning is state-level too; it
// must pin and release cleanly on top of the added families' placements,
// and survive a Rebalance in between.
func TestHotReplicationNewFamilies(t *testing.T) {
	g := testGraph()
	for _, name := range []string{"HEP", "JaBeJaSwap", "Multilevel"} {
		t.Run(name, func(t *testing.T) {
			st, err := NewPartitionState(MustNew(name, Options{}), 8, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			st.SetHotReplication(16)
			applyTrace(t, st, g, gen.ChurnConfig{Windows: 3, DelFrac: 0.1, Seed: 4})
			hot := 0
			for v := 0; v < st.NumVertices(); v++ {
				if st.Replicas(graph.VertexID(v)) == 8 {
					hot++
				}
			}
			if hot < 16 {
				t.Fatalf("%d vertices fully replicated, want ≥16 hot pins", hot)
			}
			st.Rebalance(1.1)
			st.SetHotReplication(0)
			for v := 0; v < st.NumVertices(); v++ {
				if st.Degree(graph.VertexID(v)) == 0 && st.Replicas(graph.VertexID(v)) != 0 {
					t.Fatalf("vertex %d has images with no live edges after unpin", v)
				}
			}
			var total int64
			for p := 0; p < st.NumParts(); p++ {
				total += st.EdgeCount()[p]
			}
			if total != st.NumEdges() {
				t.Fatalf("edge counts sum to %d, want %d", total, st.NumEdges())
			}
		})
	}
}

func TestAsIncrementalCapabilities(t *testing.T) {
	twoD, err := AsIncremental(MustNew("2D", Options{}), 8, 1)
	if err != nil {
		t.Fatalf("stateless strategy must adapt: %v", err)
	}
	if _, ok := twoD.(DeleteObserver); ok {
		t.Error("2D's assigner is pure: it must not observe deletes")
	}
	g := gen.PrefAttach("grow", 1500, 4, 0x51)
	for _, name := range []string{"HDRF", "Oblivious"} {
		s := MustNew(name, Options{})
		inc, err := AsIncremental(s, 8, 1)
		if err != nil {
			t.Fatalf("%s must be natively incremental: %v", name, err)
		}
		if _, ok := inc.(DeleteObserver); !ok {
			t.Errorf("%s's loader must implement DeleteObserver", name)
		}
		// The churn assigner is loader 0 built for zero vertices: it must
		// place an add-only stream exactly like the pre-sized loader 0 of
		// the one-shot pass.
		sized := s.(StreamingStrategy).NewLoader(g.NumVertices(), 8, 0, 1)
		for i, e := range g.Edges {
			if a, b := inc.Assign(e), sized.Assign(e); a != b {
				t.Fatalf("%s: edge %d placed on %d by the grown loader, %d by the pre-sized one", name, i, a, b)
			}
		}
	}
	target, err := AsIncremental(MustNew("1D-Target", Options{}), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := target.(MasterHinter); !ok {
		t.Error("1D-Target's incremental assigner lost its MasterHinter")
	}
	_, err = AsIncremental(MustNew("Hybrid", Options{HybridThreshold: 30}), 8, 1)
	if !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("Hybrid: got %v, want ErrNotIncremental", err)
	}
}
