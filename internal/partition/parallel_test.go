package partition

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// partsFor picks a partition count every strategy accepts: Grid needs a
// perfect square, PDS needs p²+p+1.
func partsFor(name string) int {
	if name == "PDS" {
		return 7
	}
	return 9
}

// TestParallelMatchesSequential asserts, for every registered strategy and
// several worker counts, that the one driver's Assignment is byte-identical
// to the sequential test-side oracle: same EdgeParts, same Masters, same
// replication factor, same per-partition loads.
func TestParallelMatchesSequential(t *testing.T) {
	g := gen.PrefAttach("par", 4000, 6, 0x61)
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, name := range AllNames() {
		s := MustNew(name, Options{})
		parts := partsFor(name)
		want := buildOracle(t, s, g, parts, 5)
		for _, workers := range workerCounts {
			par, err := ParallelPartition(g, s, parts, 5, workers)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, workers, err)
			}
			assertMatchesOracle(t, fmt.Sprintf("%s/%d workers", name, workers), par, want)
		}
	}
}

// counting wrappers: forward a strategy's capabilities while counting how
// often its full-graph Partition runs.

type countingStrategy struct {
	Strategy
	calls *int32
}

func (c countingStrategy) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	atomic.AddInt32(c.calls, 1)
	return c.Strategy.Partition(g, numParts, seed)
}

type countingStateless struct{ countingStrategy }

func (c countingStateless) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return c.Strategy.(StatelessStrategy).NewAssigner(numParts, seed)
}

type countingStreaming struct{ countingStrategy }

func (c countingStreaming) Loaders(numParts int) int {
	return c.Strategy.(StreamingStrategy).Loaders(numParts)
}

func (c countingStreaming) NewLoader(numVertices, numParts, id int, seed uint64) (Assigner, error) {
	return c.Strategy.(StreamingStrategy).NewLoader(numVertices, numParts, id, seed)
}

type countingMultiPass struct{ countingStrategy }

func (c countingMultiPass) MultiPass() (passes, heuristicPasses int, why string) {
	return c.Strategy.(MultiPassStrategy).MultiPass()
}

// TestParallelNeverPartitionsTwice is the regression test for the old
// hintOnce fallback, which re-ran a full sequential partition inside the
// parallel path to recover master hints. One driver call — ParallelPartition
// or its one-worker form Partition — must run the strategy's full-graph
// Partition at most once, and not at all for stateless/streaming
// strategies, whose assigners and loaders replace it.
func TestParallelNeverPartitionsTwice(t *testing.T) {
	g := gen.PrefAttach("par-count", 2000, 5, 0x13)
	for _, name := range AllNames() {
		inner := MustNew(name, Options{})
		var calls int32
		wrapped := countingStrategy{Strategy: inner, calls: &calls}
		var s Strategy
		var wantCalls int32
		switch inner.(type) {
		case StatelessStrategy:
			s, wantCalls = countingStateless{wrapped}, 0
		case StreamingStrategy:
			s, wantCalls = countingStreaming{wrapped}, 0
		case MultiPassStrategy:
			s, wantCalls = countingMultiPass{wrapped}, 1
		}
		if _, err := ParallelPartition(g, s, partsFor(name), 5, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := atomic.LoadInt32(&calls); got != wantCalls {
			t.Errorf("%s: full-graph Partition ran %d times in one ParallelPartition call, want %d",
				name, got, wantCalls)
		}
		atomic.StoreInt32(&calls, 0)
		if _, err := Partition(g, s, partsFor(name), 5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := atomic.LoadInt32(&calls); got != wantCalls {
			t.Errorf("%s: full-graph Partition ran %d times in one Partition call, want %d",
				name, got, wantCalls)
		}
	}
}

func TestParallelTinyGraph(t *testing.T) {
	g := gen.RoadNet("par-tiny", 3, 3, 1)
	for _, name := range []string{"Random", "Oblivious", "Hybrid"} {
		s := MustNew(name, Options{})
		par, err := ParallelPartition(g, s, 4, 1, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertMatchesOracle(t, name+"/16 workers", par, buildOracle(t, s, g, 4, 1))
	}
}

// TestParallelRejectsBadAssignments asserts the one materialization path
// validates what a strategy returns at every worker count: an out-of-range
// partition id is refused naming the lowest offending edge, whichever
// worker's edge range holds it (the first range's, or only the last's), and
// a result of the wrong length is refused before anything is indexed.
func TestParallelRejectsBadAssignments(t *testing.T) {
	g := gen.RoadNet("par-bad", 5, 5, 1)
	for _, workers := range []int{1, 2, 3, 4} {
		for _, firstBad := range []int{7, g.NumEdges() - 3} {
			_, err := ParallelPartition(g, badStrategy{firstBad: firstBad}, 4, 1, workers)
			if want := fmt.Sprintf("placed edge %d on partition 4", firstBad); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: out-of-range assignment: got %v, want the lowest bad edge (%d) named", workers, err, firstBad)
			}
		}
		_, err := ParallelPartition(g, badStrategy{firstBad: g.NumEdges(), short: 3}, 4, 1, workers)
		if err == nil || !strings.Contains(err.Error(), "assignments for") {
			t.Errorf("workers=%d: short result: got %v, want an edge-count error", workers, err)
		}
	}
}

// badStrategy places edges firstBad.. out of range and drops the last
// `short` placements.
type badStrategy struct{ firstBad, short int }

func (badStrategy) Name() string { return "Bad" }

// MultiPass declares the capability ParallelPartition dispatches to Partition.
func (badStrategy) MultiPass() (passes, heuristicPasses int, why string) {
	return 1, 0, "test fake"
}

func (b badStrategy) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	parts := make([]int32, g.NumEdges()-b.short)
	for i := b.firstBad; i < len(parts); i++ {
		parts[i] = int32(numParts)
	}
	return &Result{EdgeParts: parts}, nil
}
