package partition

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

var updatePlacement = flag.Bool("update", false, "rewrite testdata/placement.digest")

// placementDigestWorkers are the worker counts every digest case runs at;
// all must produce the same line, so the file holds one line per case. Two
// is the width of place's direction split.
var placementDigestWorkers = []int{1, 2, 3}

// placementDigestParts are the partition counts of every case: rows of one
// word, and of two. PDS accepts only counts of the form p²+p+1, so it runs at
// three of those instead.
func placementDigestParts(name string) []int {
	if name == "PDS" {
		return []int{13, 57, 73}
	}
	return []int{9, 16, 100}
}

// placementDigestGraphs: a skewed graph with three isolated vertices (ids
// below the maximum that carry no edge, as in edge-list datasets) and a road
// network whose vertices all have low degree.
func placementDigestGraphs() []*graph.Graph {
	plaw := gen.PrefAttach("digest-plaw", 1500, 5, 0x9)
	n := graph.VertexID(plaw.NumVertices())
	edges := append(append([]graph.Edge(nil), plaw.Edges...), graph.Edge{Src: n + 3, Dst: n + 4})
	return []*graph.Graph{
		graph.FromEdges("plaw", edges),
		gen.RoadNet("road", 24, 24, 0x9),
	}
}

// digestOf hashes values of a fixed-size type as length/FNV-1a over their
// little-endian bytes.
func digestOf[T any](vs []T) string {
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, vs); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%d/%016x", len(vs), h.Sum64())
}

// placementLine is the digest line of one assignment: its edge placements,
// masters, the three row words of every vertex, the per-partition edge
// counts, and the replication factor and balance as IEEE-754 bits.
func placementLine(a *Assignment) string {
	var reps, in, out []uint64
	for v := 0; v < a.G.NumVertices(); v++ {
		r, i, o := a.Rows(graph.VertexID(v))
		reps, in, out = append(reps, r...), append(in, i...), append(out, o...)
	}
	return fmt.Sprintf("edges=%s masters=%s replicas=%s in=%s out=%s counts=%s rf=%016x balance=%016x",
		digestOf(a.EdgeParts), digestOf(a.Masters), digestOf(reps), digestOf(in), digestOf(out),
		digestOf(a.EdgeCount), math.Float64bits(a.ReplicationFactor()), math.Float64bits(a.EdgeBalance()))
}

// TestPlacementDigest is the partition layer's byte gate: every registered
// strategy over two graphs at three partition counts, materialized at
// workers 1 and 3, reduced to one line of hashes per case. A change to
// ingress, the greedy scoring or the materialization must leave
// testdata/placement.digest byte-unchanged; regenerate with -update only
// when a placement is meant to move.
func TestPlacementDigest(t *testing.T) {
	var buf bytes.Buffer
	for _, g := range placementDigestGraphs() {
		for _, name := range AllNames() {
			s := MustNew(name, Options{})
			for _, parts := range placementDigestParts(name) {
				key := fmt.Sprintf("%s/%s/%d", g.Name, name, parts)
				var first string
				for _, w := range placementDigestWorkers {
					a, err := ParallelPartition(g, s, parts, 7, w)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, w, err)
					}
					line := placementLine(a)
					if w == placementDigestWorkers[0] {
						first = line
					} else if line != first {
						t.Errorf("%s: workers=%d differs from workers=%d\n%s\n%s", key, w, placementDigestWorkers[0], line, first)
					}
				}
				fmt.Fprintf(&buf, "%s %s\n", key, first)
			}
		}
	}

	path := filepath.Join("testdata", "placement.digest")
	if *updatePlacement {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(buf.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("digest has %d lines, want %d", len(gotLines), len(wantLines))
	}
	shown := 0
	for i := 0; i < len(wantLines) && i < len(gotLines) && shown < 10; i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}
