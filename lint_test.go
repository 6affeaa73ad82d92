// The invariant gate: the whole internal/analysis suite over the whole
// module, and `go vet` over the benchmark module, as part of `go test ./...`
// — the one command every change is held to. Neither test is skipped under
// -short. docs/ANALYSIS.md lists the invariants and how to add one.
package main

import (
	"os/exec"
	"testing"

	"graphpart/internal/analysis"
)

// TestGraphlintClean fails with every finding of every analyzer. A finding
// is fixed at its site, or waived there with a stated proof where the row
// allows a waiver — never here.
func TestGraphlintClean(t *testing.T) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestBenchmarkModuleVets type-checks benchmark/, a module of its own that
// `./...` never visits but that links internal/partition, engine and service
// directly: an API break against it fails here, not at the next ledger run.
func TestBenchmarkModuleVets(t *testing.T) {
	if out, err := exec.Command("go", "-C", "benchmark", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
