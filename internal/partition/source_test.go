package partition_test

import (
	"path/filepath"
	"testing"

	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// sourceParts picks a partition count every strategy accepts: Grid needs a
// perfect square, PDS needs p²+p+1.
func sourceParts(name string) int {
	if name == "PDS" {
		return 13
	}
	return 9
}

// TestBinaryAndTextSourcesYieldIdenticalAssignments is the acceptance bar
// for the binary graph format: for every registered dataset, partitioning
// the graph loaded from its .csrg form must yield byte-identical edge
// placements and masters to the graph loaded from a text edge list, for all
// 16 strategies (the paper's 13 plus HEP, JaBeJaSwap and Multilevel). The
// formats must therefore preserve edge order exactly — streaming strategies
// assign by edge index, so order is part of graph identity.
func TestBinaryAndTextSourcesYieldIdenticalAssignments(t *testing.T) {
	names := datasets.Names()
	if testing.Short() {
		names = []string{"road-ca", "livejournal"} // one per ingress regime
	}
	strategies := partition.AllNames()
	if len(strategies) != 16 {
		t.Fatalf("registry has %d strategies, want the paper's 13 plus the 3 added families", len(strategies))
	}
	dir := t.TempDir()
	for _, ds := range names {
		g, err := datasets.Load(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		textPath := filepath.Join(dir, ds+".txt")
		v1Path := filepath.Join(dir, ds+".v1.csrg")
		v2Path := filepath.Join(dir, ds+".v2.csrg")
		if err := graph.SaveEdgeList(g, textPath); err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveCSRVersion(g, v1Path, graph.CSRVersion1); err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveCSRVersion(g, v2Path, graph.CSRVersion2); err != nil {
			t.Fatal(err)
		}

		// Every source format and load path in the repo, against the text
		// baseline: v1 via mmap (when the platform has it), v1 via the
		// portable read path, and v2's parallel block decode.
		sources := map[string]*graph.Graph{}
		load := func(how string, fn func() (*graph.Graph, error)) {
			lg, err := fn()
			if err != nil {
				t.Fatalf("%s (%s): %v", ds, how, err)
			}
			if lg.NumEdges() != g.NumEdges() {
				t.Fatalf("%s (%s): reloaded %d edges, want %d", ds, how, lg.NumEdges(), g.NumEdges())
			}
			sources[how] = lg
		}
		load("text", func() (*graph.Graph, error) { return graph.LoadFile(textPath) })
		load("v1-mmap", func() (*graph.Graph, error) { return graph.LoadCSRWith(v1Path, graph.CSRLoadOptions{}) })
		load("v1-read", func() (*graph.Graph, error) {
			return graph.LoadCSRWith(v1Path, graph.CSRLoadOptions{DisableMmap: true})
		})
		load("v2", func() (*graph.Graph, error) { return graph.LoadFile(v2Path) })
		fromText := sources["text"]

		for _, name := range strategies {
			parts := sourceParts(name)
			s := partition.MustNew(name, partition.Options{})
			at, err := partition.Partition(fromText, s, parts, 1)
			if err != nil {
				t.Fatalf("%s/%s (text): %v", ds, name, err)
			}
			for how, src := range sources {
				if how == "text" {
					continue
				}
				ab, err := partition.Partition(src, s, parts, 1)
				if err != nil {
					t.Fatalf("%s/%s (%s): %v", ds, name, how, err)
				}
				if !int32SlicesEqual(at.EdgeParts, ab.EdgeParts) {
					t.Errorf("%s/%s: edge placements differ between text and %s sources", ds, name, how)
				}
				if !int32SlicesEqual(at.Masters, ab.Masters) {
					t.Errorf("%s/%s: masters differ between text and %s sources", ds, name, how)
				}
			}
		}
	}
}

// TestStreamedBinarySourceMatchesText feeds the stream builder from both file
// formats via graph.StreamFile and checks the streamed summaries agree —
// the bounded-memory ingress path accepts the binary source too.
func TestStreamedBinarySourceMatchesText(t *testing.T) {
	g, err := datasets.Load("road-ca", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	binPath := filepath.Join(dir, "g.csrg")
	v2Path := filepath.Join(dir, "g.v2.csrg")
	if err := graph.SaveEdgeList(g, textPath); err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveCSRVersion(g, binPath, graph.CSRVersion1); err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveCSRVersion(g, v2Path, graph.CSRVersion2); err != nil {
		t.Fatal(err)
	}

	summarize := func(path string) *partition.StreamSummary {
		b, err := partition.NewShardedStreamBuilder(partition.MustNew("Grid", partition.Options{}), 9, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := graph.StreamFile(path, 4096, func(offset int64, edges []graph.Edge) error {
			return b.Feed(partition.EdgeBatch{Offset: offset, Edges: edges})
		}); err != nil {
			t.Fatal(err)
		}
		sum, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	st := summarize(textPath)
	for _, path := range []string{binPath, v2Path} {
		sb := summarize(path)
		if st.NumEdges != sb.NumEdges || st.NumVertices != sb.NumVertices {
			t.Errorf("%s: streamed sizes differ: text |V|=%d |E|=%d, binary |V|=%d |E|=%d",
				path, st.NumVertices, st.NumEdges, sb.NumVertices, sb.NumEdges)
		}
		if st.ReplicationFactor() != sb.ReplicationFactor() || st.EdgeBalance() != sb.EdgeBalance() {
			t.Errorf("%s: streamed metrics differ: text rf=%v bal=%v, binary rf=%v bal=%v",
				path, st.ReplicationFactor(), st.EdgeBalance(), sb.ReplicationFactor(), sb.EdgeBalance())
		}
		if !int32SlicesEqual(st.Masters, sb.Masters) {
			t.Errorf("%s: streamed masters differ between text and binary sources", path)
		}
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
