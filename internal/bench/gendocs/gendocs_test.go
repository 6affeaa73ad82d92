package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

// TestCatalogIsCurrent renders the catalog through the generator's own path
// — the registry plus the committed baseline — and compares it byte for
// byte with the committed docs/EXPERIMENTS.md, so a registry, cell or check
// change that was not regenerated fails `go test`.
func TestCatalogIsCurrent(t *testing.T) {
	base, err := loadBaseline(filepath.Join("..", "..", "..", "BENCH_seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := render(bench.All(), base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("docs/EXPERIMENTS.md is stale from line %d (run go generate ./internal/bench and commit):\n committed: %q\n rendered:  %q", i+1, w, g)
		}
	}
}

// TestCatalogNeedsEveryExperimentInBaseline: a registered experiment the
// baseline lacks fails the catalog, naming it, instead of rendering an
// empty section.
func TestCatalogNeedsEveryExperimentInBaseline(t *testing.T) {
	exps := []bench.Experiment{{ID: "x.1", Title: "kept"}, {ID: "x.2", Title: "missing"}}
	base := &report.Report{Experiments: []report.Experiment{{ID: "x.1", Title: "kept"}}}
	if _, err := render(exps, base); err == nil || !strings.Contains(err.Error(), "x.2") {
		t.Errorf("render with x.2 missing from the baseline returned %v, want an error naming x.2", err)
	}
}
