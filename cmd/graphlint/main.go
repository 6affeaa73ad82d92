// Graphlint prints the findings of the internal/analysis suite (detrange,
// forbid, nondet, unsafeguard) over Go packages and exits non-zero
// on any. The gate is the root package's TestGraphlintClean, which runs the
// same suite over ./... under `go test`; this command is for reading the
// findings of one package, or of another module (benchmark/).
// docs/ANALYSIS.md documents what each analyzer checks and how to waive a
// finding.
//
// Usage:
//
//	go run ./cmd/graphlint [packages]     # default ./...
package main

import (
	"fmt"
	"io"
	"os"

	"graphpart/internal/analysis"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run analyzes the packages matching patterns, resolved from dir: exit code 0
// when clean, 1 with one file:line: analyzer: message line per finding, 2
// when the packages do not load.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "graphlint:", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, "graphlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "graphlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
