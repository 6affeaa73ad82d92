package analysis_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphpart/internal/analysis"
	"graphpart/internal/analysis/analysistest"
)

var fixtureRoot = filepath.Join("testdata", "src")

// Each analyzer gets a positive fixture (a violation it must flag), an
// idiom-negative (the sanctioned shape it must accept — sorted iteration,
// seeded rand, documented aliasing), and a waiver-negative (the marker
// comment suppressing the finding).

func TestDetrangeFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "detrange/...", analysis.Detrange)
}

// TestForbidFixture runs the table over one fixture package per sanctioned
// site (engine: none; par, service, main, graph's mmap layer) and then asks
// that every row was tripped by a line carrying a want: a row nobody can show
// firing is a row nobody knows works.
func TestForbidFixture(t *testing.T) {
	diags := analysistest.Run(t, fixtureRoot, "forbid/...", analysis.Forbid)
	for i, why := range analysis.ForbidWhys() {
		tripped := slices.ContainsFunc(diags, func(d analysis.Diagnostic) bool {
			return strings.HasSuffix(d.Message, ": "+why)
		})
		if !tripped {
			t.Errorf("forbid row %d (%q) has no positive line under testdata/src/forbid", i, why)
		}
	}
}

func TestNondetCellValueFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "nondetservice", analysis.Nondet)
}

func TestUnsafeguardFixture(t *testing.T) {
	analysistest.Run(t, fixtureRoot, "unsafeguard", analysis.Unsafeguard)
}

// TestSuiteComplete pins the suite's contents: adding an analyzer without
// wiring it into All() would silently drop it from TestGraphlintClean.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{"detrange": true, "forbid": true, "nondet": true, "unsafeguard": true}
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
