package partition

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// TestShardedMatchesSequential is the correctness bar for sharded ingress:
// for every stateless strategy and several worker counts, the merged
// summary must be fully identical to the sequential test-side oracle's —
// masters, per-partition counts, replicas, RF and balance — no matter how
// batches interleave across workers.
func TestShardedMatchesSequential(t *testing.T) {
	g := gen.PrefAttach("sharded", 4000, 5, 0x5d)
	for _, name := range AllNames() {
		s := MustNew(name, Options{})
		if _, ok := s.(StatelessStrategy); !ok {
			continue
		}
		parts := partsFor(name)
		want := cutView(buildOracle(t, s, g, parts, 9))
		for _, workers := range []int{1, 3, 8} {
			got := streamSummary(t, s, g, parts, workers, 512, 9)
			label := fmt.Sprintf("%s/w=%d", name, workers)
			assertTablesEqual(t, label, viewOf(&got.cutTable, got.NumVertices), want)
			// The exported fields are the core's own slices.
			if &got.Masters[0] != &got.masters[0] || &got.EdgeCount[0] != &got.q.EdgeCounts()[0] {
				t.Fatalf("%s: exported Masters/EdgeCount do not alias the core", label)
			}
		}
	}
}

// TestWideRowsMatchOracle pins the master pass on replica rows wider than
// one 64-bit word — every other test runs at P = 9 or 7 — for the stream
// builder and the materialized driver at several worker counts, on the
// hash path (Grid, ResilientGrid, Random) and the hint path (1D-Target).
func TestWideRowsMatchOracle(t *testing.T) {
	g := gen.PrefAttach("wide", 3000, 8, 0x3d)
	for _, c := range []struct {
		name  string
		parts int
	}{{"Grid", 100}, {"ResilientGrid", 70}, {"1D-Target", 70}, {"Random", 130}} {
		s := MustNew(c.name, Options{})
		want := buildOracle(t, s, g, c.parts, 9)
		for _, workers := range []int{1, 3, 8} {
			label := fmt.Sprintf("%s/P=%d/w=%d", c.name, c.parts, workers)
			got := streamSummary(t, s, g, c.parts, workers, 512, 9)
			assertTablesEqual(t, label+"/stream", viewOf(&got.cutTable, got.NumVertices), cutView(want))
			a, err := ParallelPartition(g, s, c.parts, 9, workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatchesOracle(t, label+"/driver", a, want)
		}
	}
}

// TestFinishReleasesShards: once Finish has built the summary, the builder
// holds nothing but it — no shard matrices, no assigners, no pooled batch
// buffers — and a second Finish returns the same summary.
func TestFinishReleasesShards(t *testing.T) {
	g := gen.PrefAttach("release", 2000, 4, 0x35)
	sb, err := NewShardedStreamBuilder(MustNew("Grid", Options{}), 9, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	feedInBatches(t, sb, g, 256)
	sum, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sb.shards != nil {
		t.Errorf("Finish kept %d shards", len(sb.shards))
	}
	if buf := sb.pool.Get(); buf != nil {
		t.Errorf("Finish kept the batch pool: Get returned %T", buf)
	}
	if again, err := sb.Finish(); again != sum || err != nil {
		t.Errorf("second Finish = %p, %v; want %p, nil", again, err, sum)
	}
}

// TestSummaryKeepsTheTightestMatrix: shards whose replica matrices grew to
// unequal capacities merge into the one with the least capacity that holds
// the whole vertex space — not the first shard, nor one too small — and the
// summary is the one the sequential table builds. Shard 0 grows edge by edge
// to 4004 rows for 2500 vertices, shard 1 to exactly 2500 in one step, shard
// 2 to 3; each shard is fed on the test goroutine, no batch goes to the
// workers.
func TestSummaryKeepsTheTightestMatrix(t *testing.T) {
	shardEdges := [][][]graph.Edge{
		{{{Src: 0, Dst: 1000}}, {{Src: 0, Dst: 1001}}, {{Src: 1, Dst: 2499}}},
		{{{Src: 5, Dst: 2499}, {Src: 7, Dst: 9}}},
		{{{Src: 1, Dst: 2}}},
	}
	for _, name := range []string{"Grid", "1D-Target"} {
		s := MustNew(name, Options{})
		sb, err := NewShardedStreamBuilder(s, 9, len(shardEdges), 9)
		if err != nil {
			t.Fatal(err)
		}
		var all []graph.Edge
		for i, batches := range shardEdges {
			for _, b := range batches {
				if err := sb.shards[i].feed(name, EdgeBatch{Offset: int64(len(all)), Edges: b}); err != nil {
					t.Fatal(err)
				}
				all = append(all, b...)
			}
		}
		if caps := [3]int{sb.shards[0].replicas.capRows(), sb.shards[1].replicas.capRows(), sb.shards[2].replicas.capRows()}; caps != [3]int{4004, 2500, 3} {
			t.Fatalf("%s: test premise broken: shard capacities %v, want [4004 2500 3]", name, caps)
		}
		sum, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := sum.replicas.capRows(); got != 2500 {
			t.Errorf("%s: the summary keeps a %d-row matrix, want the tightest, 2500", name, got)
		}
		g := graph.FromEdges("unequal", all)
		assertTablesEqual(t, name, viewOf(&sum.cutTable, sum.NumVertices), cutView(buildOracle(t, s, g, 9, 9)))
	}
}

// badAssigner places every edge out of range, to exercise the sharded error
// path end to end.
type badAssigner struct{}

func (badAssigner) Assign(graph.Edge) int32 { return 1 << 20 }

// badShardStrategy is a hash row whose assigner is badAssigner.
var badShardStrategy = &hashStrategy{"Random", func(int, uint64) (Assigner, error) { return badAssigner{}, nil }}

func TestShardedPropagatesAssignmentErrors(t *testing.T) {
	sb, err := NewShardedStreamBuilder(badShardStrategy, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The error surfaces asynchronously: keep feeding until Feed reports
	// it or the stream ends, then Finish must report it regardless.
	var feedErr error
	for i := 0; i < 100 && feedErr == nil; i++ {
		feedErr = sb.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 1, Dst: 2}}})
	}
	_, finishErr := sb.Finish()
	if finishErr == nil {
		t.Fatal("Finish swallowed the assignment error")
	}
	if !strings.Contains(finishErr.Error(), "placed edge") {
		t.Errorf("error %q does not name the misplaced edge", finishErr)
	}
	if sb.shards != nil {
		t.Errorf("a failed Finish kept %d shards", len(sb.shards))
	}
	if err := sb.Feed(EdgeBatch{}); err == nil {
		t.Error("Feed after Finish accepted")
	}
}

// TestStreamBuilderFeedDoesNotAllocate pins the steady-state ingress hot
// path — one worker's shard — at zero allocations per batch: once the
// replica matrix has grown to the vertex range, feed must reuse everything.
func TestStreamBuilderFeedDoesNotAllocate(t *testing.T) {
	g := gen.PrefAttach("allocs", 2000, 4, 0x33)
	for _, name := range []string{"Random", "Grid", "HDRF"} {
		s := MustNew(name, Options{})
		ss, ok := s.(StatelessStrategy)
		if !ok {
			continue // HDRF is streaming, not stateless — documented skip
		}
		asg, err := ss.NewAssigner(9, 1)
		if err != nil {
			t.Fatal(err)
		}
		sh := newStreamShard(9, 1, asg)
		batch := EdgeBatch{Edges: g.Edges}
		if err := sh.feed(name, batch); err != nil { // warm: grows rows to |V|
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := sh.feed(name, batch); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state feed allocates %.1f times per batch, want 0", name, avg)
		}
	}
}

// TestShardedFeedSteadyStateAllocs pins the sharded path too: after warmup
// the copy buffers come from the pool, so the producer side of Feed should
// allocate at most the occasional pool refill.
func TestShardedFeedSteadyStateAllocs(t *testing.T) {
	g := gen.PrefAttach("allocs-sharded", 2000, 4, 0x34)
	ss := MustNew("Random", Options{}).(StatelessStrategy)
	sb, err := NewShardedStreamBuilder(ss, 9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := EdgeBatch{Edges: g.Edges[:1024]}
	for i := 0; i < 50; i++ { // warm pool and worker matrices
		if err := sb.Feed(batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := sb.Feed(batch); err != nil {
			t.Fatal(err)
		}
	})
	// The pool may refill when the GC clears it mid-run; allow a small
	// fraction but reject per-batch allocation.
	if avg > 0.5 {
		t.Errorf("sharded Feed allocates %.2f times per batch in steady state", avg)
	}
	if _, err := sb.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedIngressScales is the acceptance gate for near-linear stateless
// ingress: on a ≥4-core machine, 4 workers must ingest a stream ≥2× faster
// than 1 worker. Skipped in -short mode and on small machines (CI boxes
// with 1–2 cores cannot exhibit the scaling this measures).
func TestShardedIngressScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling measurement needs ≥4 cores, have %d", runtime.NumCPU())
	}
	g := gen.PrefAttach("scaling", 200_000, 8, 0x77)
	ss := MustNew("2D", Options{}).(StatelessStrategy)

	ingest := func(workers int) time.Duration {
		start := time.Now()
		// A few repetitions so the measurement dominates setup noise.
		for rep := 0; rep < 3; rep++ {
			sb, err := NewShardedStreamBuilder(ss, 16, workers, 9)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(g.Edges); lo += graph.DefaultBatchSize {
				hi := lo + graph.DefaultBatchSize
				if hi > len(g.Edges) {
					hi = len(g.Edges)
				}
				if err := sb.Feed(EdgeBatch{Offset: int64(lo), Edges: g.Edges[lo:hi]}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sb.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	ingest(4) // warm caches and pools before timing
	t1 := ingest(1)
	t4 := ingest(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("1 worker %v, 4 workers %v, speedup %.2fx", t1, t4, speedup)
	if speedup < 2 {
		t.Errorf("sharded ingress speedup 1→4 workers is %.2fx, want ≥2x", speedup)
	}
}
