package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogIsCurrent renders the catalog through the generator's own path
// and compares it byte for byte with the committed docs/EXPERIMENTS.md, so a
// registry, cell or check change that was not regenerated fails `go test`.
func TestCatalogIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment (~20 s); run without -short")
	}
	results, err := run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	got := render(results)
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
