package graph

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The load-format benchmark: the same 1M-edge graph stored as a text edge
// list and as .csrg, loaded repeatedly. The binary forms replace a digit
// loop per id with bulk fixed-width copies (v1, or no copy at all when
// mapped) or varint decodes (v2), which is what makes the dataset disk
// cache worth maintaining. CI uploads the output, B/op and allocs/op
// included, as an artifact; nothing here asserts a time.
//
//	go test -bench 'BenchmarkLoad(CSR|EdgeListText)' -benchmem -run '^$' ./internal/graph/

const benchEdges = 1_000_000

// benchGraph1M builds a deterministic 1M-edge graph with a skewed degree
// distribution (hash-mixed endpoints over 200k vertices).
func benchGraph1M() *Graph {
	edges := make([]Edge, benchEdges)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const n = 200_000
	for i := range edges {
		src := VertexID(next() % n)
		dst := VertexID(next() % n)
		if next()%8 == 0 { // a hub tail, so parsing costs vary by line length
			dst = VertexID(next() % 64)
		}
		edges[i] = Edge{src, dst}
	}
	return FromEdges("bench-1m", edges)
}

var (
	benchOnce sync.Once
	benchDir  string
	benchErr  error
)

// benchFiles writes the text and binary forms once per process and returns
// their paths.
func benchFiles(b *testing.B) (textPath, csrPath string) {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "csrbench")
		if benchErr != nil {
			return
		}
		g := benchGraph1M()
		if benchErr = SaveEdgeList(g, filepath.Join(benchDir, "g.txt")); benchErr != nil {
			return
		}
		if benchErr = SaveCSRVersion(g, filepath.Join(benchDir, "g.csrg"), CSRVersion1); benchErr != nil {
			return
		}
		benchErr = SaveCSRVersion(g, filepath.Join(benchDir, "g.v2.csrg"), CSRVersion2)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return filepath.Join(benchDir, "g.txt"), filepath.Join(benchDir, "g.csrg")
}

func reportLoadMetrics(b *testing.B, path string) {
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportMetric(float64(benchEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkLoadCSR measures loading the 1M-edge graph from its binary form
// (checksum verification included).
func BenchmarkLoadCSR(b *testing.B) {
	_, csrPath := benchFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadCSR(csrPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchEdges {
			b.Fatalf("loaded %d edges", g.NumEdges())
		}
	}
	reportLoadMetrics(b, csrPath)
}

// BenchmarkLoadEdgeListText is the baseline: the same graph parsed from the
// text edge list.
func BenchmarkLoadEdgeListText(b *testing.B) {
	textPath, _ := benchFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadEdgeList(textPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchEdges {
			b.Fatalf("loaded %d edges", g.NumEdges())
		}
	}
	reportLoadMetrics(b, textPath)
}

// BenchmarkLoadCSRMmap pins the zero-copy path: the mapping is validated
// (CRC) and the sections are aliased in place, so the op cost is dominated
// by the checksum scan and the bounds-check pass.
func BenchmarkLoadCSRMmap(b *testing.B) {
	if !MmapSupported() {
		b.Skip("mmap path unavailable on this platform")
	}
	_, csrPath := benchFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadCSR(csrPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchEdges {
			b.Fatalf("loaded %d edges", g.NumEdges())
		}
	}
	reportLoadMetrics(b, csrPath)
}

// BenchmarkLoadCSRRead is the same file through the portable
// read-everything path, the denominator of the mmap speedup claim.
func BenchmarkLoadCSRRead(b *testing.B) {
	_, csrPath := benchFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadCSRWith(csrPath, CSRLoadOptions{DisableMmap: true})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchEdges {
			b.Fatalf("loaded %d edges", g.NumEdges())
		}
	}
	reportLoadMetrics(b, csrPath)
}

// BenchmarkLoadCSRv2 loads the compressed form (parallel block decode).
func BenchmarkLoadCSRv2(b *testing.B) {
	benchFiles(b)
	v2Path := filepath.Join(benchDir, "g.v2.csrg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadCSR(v2Path)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != benchEdges {
			b.Fatalf("loaded %d edges", g.NumEdges())
		}
	}
	reportLoadMetrics(b, v2Path)
}

// TestLoadEdgeListAllocBudgetAt1MEdges is the text path's deterministic
// bar (wall-clock comparisons belong to benchmark/, the one stopwatch): the
// loader parses straight from the file's bytes into one exactly sized edge
// slice, so a 1M-edge load allocates the edges (8 B each), the two degree
// arrays and a handful of bookkeeping objects — not two strings per line.
// Skipped in -short runs.
func TestLoadEdgeListAllocBudgetAt1MEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge load skipped in -short mode")
	}
	textPath := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveEdgeList(benchGraph1M(), textPath); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := LoadEdgeList(textPath)
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() != benchEdges {
				b.Fatalf("loaded %d edges", g.NumEdges())
			}
		}
	})
	perEdge := float64(res.AllocedBytesPerOp()) / benchEdges
	t.Logf("LoadEdgeList at 1M edges: %.1f B/edge, %d allocs/op", perEdge, res.AllocsPerOp())
	if perEdge > 24 {
		t.Errorf("LoadEdgeList allocates %.1f B/edge at 1M edges, want ≤ 24", perEdge)
	}
	if res.AllocsPerOp() > 64 {
		t.Errorf("LoadEdgeList makes %d allocations at 1M edges, want ≤ 64", res.AllocsPerOp())
	}
}
