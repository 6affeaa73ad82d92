package partition

import (
	"path/filepath"
	"sync"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// bench1M lazily builds the ~1M-edge heavy-tailed graph shared by the
// ingress benchmarks (170k vertices × 6 edges each ≈ 1.02M edges).
var bench1M = sync.OnceValue(func() *graph.Graph {
	return gen.PrefAttach("bench-1m", 170_000, 6, 0x9e)
})

// BenchmarkStatelessIngress1M measures stateless-strategy ingress plus
// assignment materialization on a 1M-edge graph: the one driver at one
// worker against the same code at GOMAXPROCS workers. The acceptance bar
// for the streaming refactor is ≥2x wall-clock at GOMAXPROCS ≥ 4.
func BenchmarkStatelessIngress1M(b *testing.B) {
	g := bench1M()
	for _, name := range []string{"Random", "2D", "Grid"} {
		s := MustNew(name, Options{})
		b.Run(name+"/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelPartition(g, s, 9, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/workers=max", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelPartition(g, s, 9, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWeb lazily builds the benchmark module's web crawl shape (the graph
// of its pipeline-powerlaw workload at seed 1): host-local edges sorted by
// source, cut to 350 000 edges. Its greedy loaders' loads spread over
// hundreds of values, but few distinct ones.
var benchWeb = sync.OnceValue(func() *graph.Graph {
	g := gen.WebGraph("bench-web", gen.WebGraphConfig{
		N: 20_000, Alpha: 1.62, MaxOutD: 2_000, Locality: 0.86, Window: 64, Seed: 1,
	})
	return graph.FromEdges("bench-web", g.Edges[:min(350_000, g.NumEdges())])
})

// BenchmarkStreamingIngress1M measures the greedy streaming family, whose
// independent loader blocks run concurrently in the parallel pipeline: on
// the 1M-edge graph at 9 parts and on the web crawl at 16.
func BenchmarkStreamingIngress1M(b *testing.B) {
	for _, in := range []struct {
		name  string
		g     func() *graph.Graph
		parts int
	}{{"1M", bench1M, 9}, {"web", benchWeb, 16}} {
		for _, name := range []string{"Oblivious", "HDRF"} {
			s := MustNew(name, Options{})
			for _, arm := range []struct {
				name    string
				workers int
			}{{"workers=1", 1}, {"workers=max", 0}} {
				b.Run(name+"/"+in.name+"/"+arm.name, func(b *testing.B) {
					g := in.g()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := ParallelPartition(g, s, in.parts, 1, arm.workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// benchRoadWide lazily builds the graph of the benchmark module's
// stream-ingest workload at seed 1: a 1000×1000 road network.
var benchRoadWide = sync.OnceValue(func() *graph.Graph {
	return gen.RoadNet("road-wide", 1000, 1000, 1)
})

// BenchmarkStreamBuilder1M measures the memory-bounded batch ingress path
// (assign + replica bookkeeping, no edge list retained) at one worker and at
// GOMAXPROCS workers of the one builder: Random at 9 parts fed the 1M-edge
// graph from memory, and stream-ingest's shape, Grid at 16 parts fed the
// road network through StreamFile from a v2 file (the decode is timed too).
func BenchmarkStreamBuilder1M(b *testing.B) {
	const batch = 1 << 16
	for _, in := range []struct {
		name     string
		strategy string
		parts    int
		setup    func(b *testing.B) func(sb *ShardedStreamBuilder) error
	}{
		{"1M", "Random", 9, func(*testing.B) func(*ShardedStreamBuilder) error {
			g := bench1M()
			return func(sb *ShardedStreamBuilder) error {
				for lo := 0; lo < g.NumEdges(); lo += batch {
					hi := min(lo+batch, g.NumEdges())
					if err := sb.Feed(EdgeBatch{Offset: int64(lo), Edges: g.Edges[lo:hi]}); err != nil {
						return err
					}
				}
				return nil
			}
		}},
		{"road-v2", "Grid", 16, func(b *testing.B) func(*ShardedStreamBuilder) error {
			path := filepath.Join(b.TempDir(), "road-wide.v2.csrg")
			if err := graph.SaveCSRVersion(benchRoadWide(), path, graph.CSRVersion2); err != nil {
				b.Fatal(err)
			}
			return func(sb *ShardedStreamBuilder) error {
				_, _, err := graph.StreamFile(path, 0, func(offset int64, edges []graph.Edge) error {
					return sb.Feed(EdgeBatch{Offset: offset, Edges: edges})
				})
				return err
			}
		}},
	} {
		s := MustNew(in.strategy, Options{})
		for _, arm := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=max", 0}} {
			b.Run(in.name+"/"+arm.name, func(b *testing.B) {
				feed := in.setup(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sb, err := NewShardedStreamBuilder(s, in.parts, arm.workers, 1)
					if err != nil {
						b.Fatal(err)
					}
					if err := feed(sb); err != nil {
						b.Fatal(err)
					}
					if _, err := sb.Finish(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// paperSweep50k lazily builds the graph of the benchmark module's
// partition-sweep workload: 50 000 vertices × 10 edges each, heavy-tailed.
var paperSweep50k = sync.OnceValue(func() *graph.Graph {
	return gen.PrefAttach("sweep-50k", 50_000, 10, 1)
})

// BenchmarkPaperSweep partitions one resident graph with the paper's twelve
// strategies constructible at 16 partitions (all thirteen but PDS), the
// pass the benchmark module's partition-sweep workload times, at one worker
// and at GOMAXPROCS. Profile the partition layer with
// `go test -run '^$' -bench PaperSweep -cpuprofile cpu.prof`.
func BenchmarkPaperSweep(b *testing.B) {
	g := paperSweep50k()
	g.EnsureCSR()
	var strats []Strategy
	for _, name := range []string{
		"Random", "CanonicalRandom", "AsymRandom", "Oblivious", "HDRF", "Grid",
		"ResilientGrid", "Hybrid", "H-Ginger", "1D", "1D-Target", "2D",
	} {
		strats = append(strats, MustNew(name, Options{}))
	}
	for _, arm := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range strats {
					if _, err := ParallelPartition(g, s, 16, 1, arm.workers); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
