package datasets

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphpart/internal/graph"
)

func TestManifestRoundTrip(t *testing.T) {
	m, err := BuildManifest("road-ca", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != SyntheticRoad || m.Class != graph.LowDegree {
		t.Errorf("road-ca manifest kind=%s class=%s", m.Kind, m.Class)
	}
	if m.Vertices == 0 || m.Edges == 0 || m.Provenance == "" {
		t.Errorf("manifest missing measured fields: %+v", m)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("manifest did not round-trip:\n out  %+v\n back %+v", m, back)
	}
}

func TestManifestSkewSeparatesClasses(t *testing.T) {
	road, err := BuildManifest("road-ca", 1)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := BuildManifest("twitter", 1)
	if err != nil {
		t.Fatal(err)
	}
	if road.Stats.Gini >= tw.Stats.Gini {
		t.Errorf("road Gini %.3f not below twitter Gini %.3f — skew stat is not separating classes",
			road.Stats.Gini, tw.Stats.Gini)
	}
	if road.Stats.MaxDegree >= tw.Stats.MaxDegree {
		t.Errorf("road max degree %d not below twitter %d", road.Stats.MaxDegree, tw.Stats.MaxDegree)
	}
}

func TestManifestUnknownName(t *testing.T) {
	if _, err := BuildManifest("no-such-graph", 1); err == nil {
		t.Error("BuildManifest accepted an unknown dataset")
	}
}

// unregister removes a dataset a test registered.
func unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
	for i, n := range extraOrder {
		if n == name {
			extraOrder = append(extraOrder[:i], extraOrder[i+1:]...)
			break
		}
	}
}

func TestRegisterFileExternalDataset(t *testing.T) {
	dir := t.TempDir()
	g := graph.FromEdges("ext", []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3},
	})
	path := filepath.Join(dir, "ext.csrg")
	if err := graph.SaveCSRVersion(g, path, graph.CSRVersion1); err != nil {
		t.Fatal(err)
	}
	if err := RegisterFile("ext-test", path, graph.LowDegree); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unregister("ext-test") })

	if err := RegisterFile("ext-test", path, graph.LowDegree); err == nil {
		t.Error("duplicate registration accepted")
	}

	found := false
	for _, n := range Names() {
		if n == "ext-test" {
			found = true
		}
	}
	if !found {
		t.Errorf("registered dataset missing from Names() = %v", Names())
	}

	loaded := load(t, "ext-test", 1)
	if loaded.Name != "ext-test" || loaded.NumEdges() != g.NumEdges() {
		t.Errorf("external load = %v, want 4 edges named ext-test", loaded)
	}
	m, err := BuildManifest("ext-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != External || m.Edges != 4 {
		t.Errorf("external manifest %+v", m)
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(Info{}, func(int) (*graph.Graph, error) { return nil, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Info{Name: "x"}, nil); err == nil {
		t.Error("nil builder accepted")
	}
	if err := Register(Info{Name: "road-ca"}, func(int) (*graph.Graph, error) { return nil, nil }); err == nil {
		t.Error("builtin name shadowed")
	}
}

// TestLoadRetriesAfterTransientBuilderError pins that a failed build is not
// pinned by the cache: external file datasets can fail transiently
// (file not downloaded yet) and must succeed on a later Load.
func TestLoadRetriesAfterTransientBuilderError(t *testing.T) {
	calls := 0
	if err := Register(Info{Name: "flaky-test", Kind: External, Class: graph.LowDegree},
		func(int) (*graph.Graph, error) {
			calls++
			if calls == 1 {
				return nil, os.ErrNotExist
			}
			return graph.FromEdges("flaky-test", []graph.Edge{{Src: 0, Dst: 1}}), nil
		}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unregister("flaky-test") })

	if _, err := Load("flaky-test", 1); err == nil {
		t.Fatal("first load should fail")
	}
	g, err := Load("flaky-test", 1)
	if err != nil {
		t.Fatalf("second load still failing: %v", err)
	}
	if g.NumEdges() != 1 || calls != 2 {
		t.Errorf("retry produced |E|=%d after %d builder calls", g.NumEdges(), calls)
	}
}
