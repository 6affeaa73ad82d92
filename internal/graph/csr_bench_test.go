package graph

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The load-format benchmark: the same 1M-edge graph stored as a text edge
// list and as .csrg, loaded repeatedly. The binary path must be ≥5× faster —
// it replaces a line scan plus two integer parses per edge with bulk
// fixed-width decodes — which is what makes the dataset disk cache worth
// maintaining. CI uploads the output as an artifact.
//
//	go test -bench 'BenchmarkLoad(CSR|EdgeListText)' -run '^$' ./internal/graph/

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

// TestCSRLoadSpeedupAt1MEdges measures the acceptance bar directly — binary
// loads of the 1M-edge graph must beat text parsing by ≥5× — with a single
// timed pass per format. The margin is wide (binary loading is typically
// 20–40× faster), so one pass is stable enough; skipped in -short runs.
func TestCSRLoadSpeedupAt1MEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge load comparison skipped in -short mode")
	}
	dir := t.TempDir()
	g := benchGraph1M()
	textPath := filepath.Join(dir, "g.txt")
	csrPath := filepath.Join(dir, "g.csrg")
	if err := SaveEdgeList(g, textPath); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSRVersion(g, csrPath, CSRVersion1); err != nil {
		t.Fatal(err)
	}

	timeIt := func(load func() error) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := load(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	textNs := timeIt(func() error { _, err := LoadEdgeList(textPath); return err })
	csrNs := timeIt(func() error { _, err := LoadCSR(csrPath); return err })
	speedup := textNs / csrNs
	t.Logf("text %.1fms, csrg %.1fms, speedup %.1fx", textNs/1e6, csrNs/1e6, speedup)
	if speedup < 5 {
		t.Errorf("binary load only %.1fx faster than text at 1M edges, want ≥5x", speedup)
	}
}
