package analysis_test

import (
	"path/filepath"
	"testing"

	"graphpart/internal/analysis"
	"graphpart/internal/analysis/analysistest"
)

var fixtureRoot = filepath.Join("testdata", "src")

// Each analyzer gets a positive fixture (a violation it must flag), an
// idiom-negative (the sanctioned shape it must accept — sorted iteration,
// seeded rand, documented aliasing, a fully-registered strategy), and a
// waiver-negative (the marker comment suppressing the finding).

func TestDetrangeFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "detrange", analysis.Detrange)
}

func TestNondetFlowFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "nondetflow", analysis.Nondet)
}

func TestNondetCellValueFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "nondetservice", analysis.Nondet)
}

func TestRegistryCleanFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "registryok", analysis.Registry)
}

func TestRegistryViolationsFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "registrybad", analysis.Registry)
}

func TestUnsafeguardFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "unsafeguard", analysis.Unsafeguard)
}

// TestSuiteComplete pins the multichecker's contents: adding an analyzer
// without wiring it into All() would silently drop it from CI.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{"detrange": true, "nondet": true, "registry": true, "unsafeguard": true}
	got := analysis.All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in All()", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}
