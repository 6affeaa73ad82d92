package datasets

import (
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// load is Load for a test: an error ends it.
func load(t *testing.T, name string, scale int) *graph.Graph {
	t.Helper()
	g, err := Load(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("want the paper's 6 datasets, got %d", len(names))
	}
	for _, n := range names {
		info, err := Describe(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Name != n {
			t.Errorf("Describe(%q).Name = %q", n, info.Name)
		}
	}
	if _, err := Describe("facebook"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLoadCachesAndIsDeterministic(t *testing.T) {
	a := load(t, "road-ca", 1)
	b := load(t, "road-ca", 1)
	if a != b {
		t.Error("Load did not cache")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetsLandInPaperDegreeClasses(t *testing.T) {
	// Table 4.2's classes are the entire basis of the decision trees; the
	// stand-ins must land in the same classes.
	for _, name := range Names() {
		info, _ := Describe(name)
		g := load(t, name, 1)
		cls := graph.Classify(g)
		if cls.Class != info.Class {
			t.Errorf("%s: classified %v (maxdeg=%d ratio=%.3f), paper class %v",
				name, cls.Class, cls.MaxDegree, cls.LowDegreeRatio, info.Class)
		}
	}
}

func TestScaleGrowsGraphs(t *testing.T) {
	small := load(t, "livejournal", 1)
	big := load(t, "livejournal", 2)
	if big.NumEdges() <= small.NumEdges() {
		t.Errorf("scale 2 (%d edges) not larger than scale 1 (%d)", big.NumEdges(), small.NumEdges())
	}
}

func TestRelativeSizesMatchPaper(t *testing.T) {
	// road-usa > road-ca; twitter and uk-web are the largest (Table 4.2).
	ca := load(t, "road-ca", 1).NumEdges()
	usa := load(t, "road-usa", 1).NumEdges()
	tw := load(t, "twitter", 1).NumEdges()
	lj := load(t, "livejournal", 1).NumEdges()
	if usa <= ca {
		t.Errorf("road-usa (%d) not larger than road-ca (%d)", usa, ca)
	}
	if tw <= lj {
		t.Errorf("twitter (%d) not larger than livejournal (%d)", tw, lj)
	}
}

// TestFig5_6ReplicationShape pins the paper's headline replication-factor
// orderings (Fig 5.6, §5.4.2):
//   - road networks: HDRF/Oblivious ≪ Random and Grid
//   - heavy-tailed (LJ/Twitter): Grid lowest
//   - power-law (uk-web): HDRF/Oblivious lower than Grid; Grid lower than Random
func TestFig5_6ReplicationShape(t *testing.T) {
	rf := func(g *graph.Graph, strategy string, parts int) float64 {
		s := partition.MustNew(strategy, partition.Options{})
		a, err := partition.Partition(g, s, parts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return a.ReplicationFactor()
	}
	for _, road := range []string{"road-ca", "road-usa"} {
		g := load(t, road, 1)
		hdrf, obl, rnd, grid := rf(g, "HDRF", 9), rf(g, "Oblivious", 9), rf(g, "Random", 9), rf(g, "Grid", 9)
		if hdrf >= rnd || obl >= rnd {
			t.Errorf("%s: greedy (%0.2f/%0.2f) should beat Random (%0.2f)", road, hdrf, obl, rnd)
		}
		if hdrf >= grid {
			t.Errorf("%s: HDRF (%0.2f) should beat Grid (%0.2f)", road, hdrf, grid)
		}
	}
	for _, ht := range []string{"livejournal", "twitter", "enwiki"} {
		g := load(t, ht, 1)
		grid, hdrf, obl, rnd := rf(g, "Grid", 9), rf(g, "HDRF", 9), rf(g, "Oblivious", 9), rf(g, "Random", 9)
		if grid >= hdrf || grid >= obl {
			t.Errorf("%s: Grid (%0.2f) should beat greedy (%0.2f/%0.2f)", ht, grid, hdrf, obl)
		}
		if grid >= rnd {
			t.Errorf("%s: Grid (%0.2f) should beat Random (%0.2f)", ht, grid, rnd)
		}
	}
	g := load(t, "uk-web", 1)
	grid, hdrf, obl, rnd := rf(g, "Grid", 25), rf(g, "HDRF", 25), rf(g, "Oblivious", 25), rf(g, "Random", 25)
	if hdrf >= grid || obl >= grid {
		t.Errorf("uk-web: greedy (%0.2f/%0.2f) should beat Grid (%0.2f)", hdrf, obl, grid)
	}
	if grid >= rnd {
		t.Errorf("uk-web: Grid (%0.2f) should beat Random (%0.2f)", grid, rnd)
	}
}
