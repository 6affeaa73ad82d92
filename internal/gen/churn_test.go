package gen

import (
	"testing"

	"graphpart/internal/graph"
)

func traceWindows(t *testing.T, edges []graph.Edge, cfg ChurnConfig) ([]ChurnWindow, []graph.Edge) {
	t.Helper()
	var ws []ChurnWindow
	survivors, err := ChurnTrace(edges, cfg, func(w ChurnWindow) error {
		// Events are shared buffers only within the callback; copy.
		cw := ChurnWindow{Index: w.Index}
		cw.Dels = append(cw.Dels, w.Dels...)
		cw.Adds = append(cw.Adds, w.Adds...)
		ws = append(ws, cw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ws, survivors
}

func TestChurnTraceAddOnlyReplaysStream(t *testing.T) {
	g := RoadNet("road", 12, 12, 1)
	ws, survivors := traceWindows(t, g.Edges, ChurnConfig{Windows: 5, Seed: 9})
	var replay []graph.Edge
	for _, w := range ws {
		if len(w.Dels) != 0 {
			t.Fatalf("window %d has %d deletions in an add-only trace", w.Index, len(w.Dels))
		}
		replay = append(replay, w.Adds...)
	}
	if len(replay) != len(g.Edges) || len(survivors) != len(g.Edges) {
		t.Fatalf("add-only trace replayed %d edges, %d survive, want %d", len(replay), len(survivors), len(g.Edges))
	}
	for i := range replay {
		if replay[i] != g.Edges[i] || survivors[i] != g.Edges[i] {
			t.Fatalf("edge %d out of stream order", i)
		}
	}
}

// TestChurnTraceCountsAddsAndSurvivors: every edge is added once, and the
// net of adds and deletes is the survivor count.
func TestChurnTraceCountsAddsAndSurvivors(t *testing.T) {
	g := PrefAttach("pa", 500, 3, 2)
	ws, survivors := traceWindows(t, g.Edges, ChurnConfig{Windows: 4, DelFrac: 0.25, Seed: 3})
	total := 0
	live := 0
	for _, w := range ws {
		live += len(w.Adds) - len(w.Dels)
		total += len(w.Adds)
	}
	if total != len(g.Edges) {
		t.Fatalf("trace added %d edges, want %d", total, len(g.Edges))
	}
	if live != len(survivors) {
		t.Fatalf("net live count %d, survivors %d", live, len(survivors))
	}
	if live >= total {
		t.Fatalf("DelFrac 0.25 deleted nothing (%d live of %d)", live, total)
	}
}

func TestChurnTraceDeterministic(t *testing.T) {
	g := PrefAttach("pa", 300, 3, 7)
	ws1, s1 := traceWindows(t, g.Edges, ChurnConfig{Windows: 3, DelFrac: 0.2, Seed: 5})
	ws2, s2 := traceWindows(t, g.Edges, ChurnConfig{Windows: 3, DelFrac: 0.2, Seed: 5})
	if len(s1) != len(s2) {
		t.Fatalf("survivor counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("survivor %d differs", i)
		}
	}
	for i := range ws1 {
		if len(ws1[i].Dels) != len(ws2[i].Dels) || len(ws1[i].Adds) != len(ws2[i].Adds) {
			t.Fatalf("window %d shape differs between runs", i)
		}
		for j := range ws1[i].Dels {
			if ws1[i].Dels[j] != ws2[i].Dels[j] {
				t.Fatalf("window %d delete %d differs", i, j)
			}
		}
	}
}

func TestChurnTraceValidation(t *testing.T) {
	g := RoadNet("road", 4, 4, 1)
	if _, err := ChurnTrace(g.Edges, ChurnConfig{Windows: 0}, func(ChurnWindow) error { return nil }); err == nil {
		t.Fatal("0 windows accepted")
	}
	if _, err := ChurnTrace(g.Edges, ChurnConfig{Windows: 2, DelFrac: 1}, func(ChurnWindow) error { return nil }); err == nil {
		t.Fatal("DelFrac 1 accepted")
	}
}
