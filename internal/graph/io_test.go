package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestStreamEdgeListBatches(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# header\n")
	want := make([]Edge, 0, 10)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
		want = append(want, Edge{VertexID(i), VertexID(i + 1)})
	}
	for _, batchSize := range []int{1, 3, 10, 100} {
		var got []Edge
		var offsets []int64
		total, maxID, err := streamEdgeList("t", strings.NewReader(sb.String()), batchSize,
			func(offset int64, edges []Edge) error {
				offsets = append(offsets, offset)
				got = append(got, edges...) // copy: the batch slice is reused
				return nil
			})
		if err != nil {
			t.Fatalf("batch=%d: %v", batchSize, err)
		}
		if total != 10 || maxID != 10 {
			t.Fatalf("batch=%d: total=%d maxID=%d, want 10/10", batchSize, total, maxID)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d edges, want %d", batchSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: edge %d = %v, want %v", batchSize, i, got[i], want[i])
			}
		}
		// Offsets are the global index of each batch's first edge.
		var next int64
		for i, off := range offsets {
			if off != next {
				t.Fatalf("batch=%d: batch %d offset %d, want %d", batchSize, i, off, next)
			}
			size := int64(batchSize)
			if rem := total - next; size > rem {
				size = rem
			}
			next += size
		}
	}
}

func TestStreamEdgeListPropagatesCallbackError(t *testing.T) {
	sentinel := errors.New("stop")
	_, _, err := streamEdgeList("t", strings.NewReader("1 2\n3 4\n"), 1,
		func(int64, []Edge) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestStreamEdgeListBadInput(t *testing.T) {
	for _, bad := range []string{"1\n", "x y\n", "1 z\n"} {
		if _, _, err := streamEdgeList("bad", strings.NewReader(bad), 0, func(int64, []Edge) error { return nil }); err == nil {
			t.Errorf("streamEdgeList(%q): want error, got nil", bad)
		}
	}
}

func TestWriteEdgeBatchRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {2, 3}, {4, 0}}
	var buf bytes.Buffer
	buf.WriteString("# streamed\n")
	if err := WriteEdgeBatch(&buf, edges[:2]); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeBatch(&buf, edges[2:]); err != nil {
		t.Fatal(err)
	}
	got, _ := collectStream(streamEdgeList, "rt", &buf, 0)
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !slices.Equal(got.edges, edges) {
		t.Fatalf("edges = %v, want %v", got.edges, edges)
	}
}

// TestWriteEdgeListMatchesFmtForm pins the writer's bytes: the header line
// and one "%d %d\n" per edge, exactly what a fmt.Fprintf per edge produced,
// across ids of every width and more edges than one pooled buffer holds.
func TestWriteEdgeListMatchesFmtForm(t *testing.T) {
	edges := []Edge{{0, 0}, {0, 4294967295}, {4294967295, 0}, {9, 10}, {99, 100}, {1234567890, 987654321}}
	x := uint32(1)
	for i := 0; i < 40_000; i++ {
		x = x*1664525 + 1013904223
		edges = append(edges, Edge{x >> (i % 32), x % 1000})
	}
	g := &Graph{Name: "fmt form", Edges: edges, numVertices: 1 << 32}
	var want bytes.Buffer
	fmt.Fprintf(&want, "# %s: %d vertices, %d edges\n", g.Name, g.NumVertices(), g.NumEdges())
	for _, e := range edges {
		fmt.Fprintf(&want, "%d %d\n", e.Src, e.Dst)
	}
	var got bytes.Buffer
	if err := WriteEdgeList(g, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteEdgeList wrote %d bytes that differ from the %d-byte fmt form", got.Len(), want.Len())
	}
	sentinel := errors.New("disk full")
	if err := WriteEdgeBatch(failingWriter{sentinel}, edges); !errors.Is(err, sentinel) {
		t.Fatalf("WriteEdgeBatch to a failing writer: err = %v, want the writer's", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestStreamEdgeListLongLine: a header comment longer than any fixed
// buffer parses (the scanner-based reader failed past 1 MiB with "token too
// long"), and the line count still comes out right behind it.
func TestStreamEdgeListLongLine(t *testing.T) {
	in := "# " + strings.Repeat("x", 2<<20) + "\n0 1\nbad\n"
	_, _, err := streamEdgeList("long", strings.NewReader(in), 0, func(int64, []Edge) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "edge list long line 3:") {
		t.Fatalf("err = %v, want a line 3 rejection", err)
	}
	got, _ := collectStream(streamEdgeList, "long", strings.NewReader(in[:len(in)-len("bad\n")]), 0)
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !slices.Equal(got.edges, []Edge{{0, 1}}) {
		t.Fatalf("edges = %v, want [{0 1}]", got.edges)
	}
}

// TestStreamEdgeListAllocsDoNotGrowWithInput: a warm call takes its byte
// and edge buffers from the pools and the parser allocates nothing per
// line, so 100× the edges cost no more allocations.
func TestStreamEdgeListAllocsDoNotGrowWithInput(t *testing.T) {
	allocs := func(edges int) float64 {
		var sb strings.Builder
		for i := 0; i < edges; i++ {
			fmt.Fprintf(&sb, "%d %d\n", i, i+1)
		}
		in := sb.String()
		var n int64
		return testing.AllocsPerRun(10, func() {
			var err error
			n, _, err = streamEdgeList("a", strings.NewReader(in), 0, func(int64, []Edge) error { return nil })
			if err != nil || n != int64(edges) {
				t.Fatalf("streamed %d of %d edges, err %v", n, edges, err)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if large > small+2 || large > 16 {
		t.Errorf("allocations per warm streamEdgeList call: %.0f at 1k edges, %.0f at 100k; want them equal and small", small, large)
	}
}

// TestStreamEdgeListReadError: a reader's failure is reported under the
// input's name, after the whole lines that arrived before it.
func TestStreamEdgeListReadError(t *testing.T) {
	r := io.MultiReader(strings.NewReader("0 1\n2 3\n4"), iotest.ErrReader(io.ErrUnexpectedEOF))
	var got int
	_, _, err := streamEdgeList("pipe", r, 1, func(_ int64, edges []Edge) error { got += len(edges); return nil })
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "edge list pipe: ") {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF under the input's name", err)
	}
	if got < 1 {
		t.Fatalf("no full batch delivered before the read error")
	}
}

// TestUnicodeSpaceDoesNotSeparateFields writes down the parser's one
// difference from strings.Fields: only ASCII whitespace separates fields.
func TestUnicodeSpaceDoesNotSeparateFields(t *testing.T) {
	for _, in := range []string{"1\u00a02\n", "1\u20032\n", "\u00851 2\n"} {
		if _, _, err := streamEdgeList("u", strings.NewReader(in), 0, func(int64, []Edge) error { return nil }); err == nil {
			t.Errorf("streamEdgeList(%q) accepted a line whose fields only Unicode whitespace separates", in)
		}
	}
}

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
			g, err := LoadFile(textPath)
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() != benchEdges {
				b.Fatalf("loaded %d edges", g.NumEdges())
			}
		}
	})
	perEdge := float64(res.AllocedBytesPerOp()) / benchEdges
	t.Logf("LoadFile on text at 1M edges: %.1f B/edge, %d allocs/op", perEdge, res.AllocsPerOp())
	if perEdge > 24 {
		t.Errorf("LoadFile on text allocates %.1f B/edge at 1M edges, want ≤ 24", perEdge)
	}
	if res.AllocsPerOp() > 64 {
		t.Errorf("LoadFile on text makes %d allocations at 1M edges, want ≤ 64", res.AllocsPerOp())
	}
}
