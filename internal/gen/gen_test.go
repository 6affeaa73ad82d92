package gen

import (
	"testing"

	"graphpart/internal/graph"
)

func TestRoadNetShape(t *testing.T) {
	g := RoadNet("road", 60, 60, 1)
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty road network")
	}
	// Roads are bidirectional: both directions present for every street.
	fwd := map[graph.Edge]bool{}
	for _, e := range g.Edges {
		fwd[e] = true
	}
	for _, e := range g.Edges {
		if !fwd[graph.Edge{Src: e.Dst, Dst: e.Src}] {
			t.Fatalf("edge %v has no reverse", e)
		}
	}
	// Low degree: lattice + occasional diagonals keeps max degree small.
	c := graph.Classify(g)
	if c.MaxDegree > 16 {
		t.Errorf("MaxDegree = %d, want ≤ 16", c.MaxDegree)
	}
	if c.Class != graph.LowDegree {
		t.Errorf("road net classified %v, want low-degree", c.Class)
	}
}

func TestRoadNetDeterministic(t *testing.T) {
	a := RoadNet("a", 30, 30, 42)
	b := RoadNet("b", 30, 30, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestPrefAttachHeavyTailed(t *testing.T) {
	g := PrefAttach("pa", 8000, 8, 7)
	if g.NumVertices() != 8000 {
		t.Fatalf("NumVertices = %d, want 8000", g.NumVertices())
	}
	// Every non-seed vertex has out-degree m, so min total degree ≥ m:
	// the graph has the low-degree deficit of social networks.
	cls := graph.Classify(g)
	if cls.Class != graph.HeavyTailed {
		t.Errorf("classified %v (ratio=%.3f), want heavy-tailed", cls.Class, cls.LowDegreeRatio)
	}
	// Hubs exist.
	if cls.MaxDegree < 50 {
		t.Errorf("MaxDegree = %d, want hubs ≥ 50", cls.MaxDegree)
	}
}

func TestPrefAttachDeterministic(t *testing.T) {
	a := PrefAttach("a", 500, 4, 9)
	b := PrefAttach("b", 500, 4, 9)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestPowerLawFullTail(t *testing.T) {
	g := PowerLaw("pl", PowerLawConfig{N: 20000, Alpha: 1.9, MinD: 1, MaxD: 2000, Seed: 3})
	cls := graph.Classify(g)
	if cls.Class != graph.PowerLaw {
		t.Errorf("classified %v (ratio=%.3f, maxdeg=%d), want power-law",
			cls.Class, cls.LowDegreeRatio, cls.MaxDegree)
	}
	// Most vertices are low-degree.
	h := g.DegreeHistogram()
	low := h[1] + h[2] + h[3]
	if low < g.NumVertices()/3 {
		t.Errorf("low-degree vertices = %d of %d, want ≥ 1/3", low, g.NumVertices())
	}
}

func TestPowerLawNoSelfLoops(t *testing.T) {
	g := PowerLaw("pl", PowerLawConfig{N: 2000, Alpha: 2.0, MinD: 1, MaxD: 100, Seed: 5})
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatalf("self loop %v", e)
		}
	}
}

func TestZipfDegreesRespectBounds(t *testing.T) {
	g := PowerLaw("pl", PowerLawConfig{N: 1000, Alpha: 2.0, MinD: 2, MaxD: 50, Seed: 11})
	// Out-degrees are drawn in [2,50] before stub pairing truncation; at
	// least the max can't exceed the cap by much (pairing only removes).
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > 50 {
			t.Fatalf("out-degree %d exceeds MaxD", d)
		}
	}
}
