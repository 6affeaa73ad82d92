package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"graphpart/internal/datasets"
	"graphpart/internal/graph"
)

// TestConvertRoundTripsAllDatasets drives convertFile through every edge of
// the format triangle — text ↔ v1 ↔ v2 — for every registered dataset, and
// requires each hop to reproduce the original edge list exactly (order
// included: partitioners assign by edge index, so order is identity).
func TestConvertRoundTripsAllDatasets(t *testing.T) {
	names := datasets.Names()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		g, err := datasets.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		text := filepath.Join(dir, "g.txt")
		if err := graph.SaveEdgeList(g, text); err != nil {
			t.Fatal(err)
		}

		paths := map[string]string{"text": text}
		hops := []struct {
			label   string
			src     string
			dst     string
			version int
		}{
			{"v1", "text", "from-text.v1.csrg", graph.CSRVersion1},
			{"v2", "text", "from-text.v2.csrg", graph.CSRVersion2},
			{"v2→v1", "v2", "transcoded.v1.csrg", graph.CSRVersion1},
			{"v1→v2", "v1", "transcoded.v2.csrg", graph.CSRVersion2},
			{"v2→text", "v2", "back.txt", 0},
			{"v1→text", "v1", "back2.txt", 0},
		}
		for _, hop := range hops {
			dst := filepath.Join(dir, hop.dst)
			version := hop.version
			if version == 0 {
				version = graph.CSRVersion2 // unused for text outputs
			}
			if err := convertFile(paths[hop.src], dst, version); err != nil {
				t.Fatalf("%s/%s: %v", name, hop.label, err)
			}
			paths[hop.label] = dst

			got, err := graph.LoadFile(dst)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, hop.label, err)
			}
			if got.NumVertices() != g.NumVertices() {
				t.Fatalf("%s/%s: %d vertices, want %d", name, hop.label, got.NumVertices(), g.NumVertices())
			}
			if !reflect.DeepEqual(got.Edges, g.Edges) {
				t.Fatalf("%s/%s: edge list differs after conversion", name, hop.label)
			}
			// A v1 load's Edges alias the file mapping, which is released
			// once got is unreachable: keep got until its edges are read.
			runtime.KeepAlive(got)
			if graph.IsCSRPath(dst) {
				// The format version is the uint16 at bytes [4:6).
				data, err := os.ReadFile(dst)
				if err != nil {
					t.Fatal(err)
				}
				if v := int(binary.LittleEndian.Uint16(data[4:6])); v != version {
					t.Fatalf("%s/%s: wrote version %d, want %d", name, hop.label, v, version)
				}
			}
		}
	}
}

// TestFormatVersionFlag pins the flag mapping.
func TestFormatVersionFlag(t *testing.T) {
	if formatVersion("v1") != graph.CSRVersion1 || formatVersion("v2") != graph.CSRVersion2 {
		t.Error("formatVersion maps v1/v2 incorrectly")
	}
}
