// Command gendocs regenerates docs/EXPERIMENTS.md from the bench registry:
// it runs every registered experiment at scale 1 (experiments are
// deterministic, so the catalog is stable) and writes one section per
// experiment with its paper artifact, the dimension values its cells cover,
// its metrics, and its structured checks.
//
// Invoked via `go generate ./internal/bench`; TestCatalogIsCurrent fails
// when the committed catalog is stale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

func main() {
	log.SetFlags(0)
	out := flag.String("o", "docs/EXPERIMENTS.md", "output file")
	flag.Parse()

	results, err := run()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, []byte(render(results)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gendocs: wrote %s (%d experiments)\n", *out, len(results))
}

// run executes every registered experiment at the default config; an
// experiment that fails fails the catalog.
func run() ([]bench.RunResult, error) {
	runner := bench.Runner{Config: bench.DefaultConfig()}
	results := runner.Run(bench.All())
	for _, rr := range results {
		if rr.Err != nil {
			return nil, fmt.Errorf("gendocs: %s: %w", rr.Experiment.ID, rr.Err)
		}
	}
	return results, nil
}

// render is the catalog document for the results, a pure function of them.
func render(results []bench.RunResult) string {
	var sb strings.Builder
	sb.WriteString("# Experiment catalog\n\n")
	sb.WriteString("<!-- Code generated by `go generate ./internal/bench` (internal/bench/gendocs). DO NOT EDIT. -->\n\n")
	fmt.Fprintf(&sb,
		"All %d registered experiments, one per table or figure of the paper's\n"+
			"evaluation chapters. Each section lists the paper artifact the experiment\n"+
			"regenerates, the dimension values its measurement cells cover at scale 1,\n"+
			"the metrics it emits, and the structured checks it asserts against the\n"+
			"paper's qualitative claims (✓/✗ is the scale-1 verdict). Regenerate with\n"+
			"`go generate ./internal/bench`; run any experiment with\n"+
			"`go run ./cmd/benchrunner -run <id>`.\n\n", len(results))
	for _, rr := range results {
		writeExperiment(&sb, rr)
	}
	return sb.String()
}

func writeExperiment(sb *strings.Builder, rr bench.RunResult) {
	e, res := rr.Experiment, rr.Result
	fmt.Fprintf(sb, "## `%s` — %s\n\n", e.ID, e.Title)
	fmt.Fprintf(sb, "**Paper:** %s\n\n", e.Paper)

	dims := collectDims(res.Cells)
	for _, axis := range []string{"dataset", "strategy", "app", "engine", "cluster", "parts", "variant"} {
		if vals := dims[axis]; len(vals) > 0 {
			fmt.Fprintf(sb, "- **%s:** %s\n", axisLabel(axis), strings.Join(vals, ", "))
		}
	}
	metrics := collectMetrics(res.Cells)
	fmt.Fprintf(sb, "- **metrics:** %s\n", strings.Join(metrics, ", "))
	fmt.Fprintf(sb, "- **cells:** %d\n\n", len(res.Cells))

	if len(res.Checks) > 0 {
		sb.WriteString("Checks:\n\n")
		for _, c := range res.Checks {
			fmt.Fprintf(sb, "- %s %s\n", bench.Mark(c.Pass), c.Claim)
		}
		sb.WriteString("\n")
	}
}

// collectDims gathers the distinct values each dimension axis takes across
// the experiment's cells, sorted for stable output.
func collectDims(cells []report.Cell) map[string][]string {
	sets := map[string]map[string]bool{}
	add := func(axis, v string) {
		if v == "" {
			return
		}
		if sets[axis] == nil {
			sets[axis] = map[string]bool{}
		}
		sets[axis][v] = true
	}
	for _, c := range cells {
		add("dataset", c.Dims.Dataset)
		add("strategy", c.Dims.Strategy)
		add("app", c.Dims.App)
		add("engine", c.Dims.Engine)
		add("cluster", c.Dims.Cluster)
		add("variant", c.Dims.Variant)
		if c.Dims.Parts != 0 {
			add("parts", strconv.Itoa(c.Dims.Parts))
		}
	}
	out := map[string][]string{}
	for axis, set := range sets {
		vals := make([]string, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		if axis == "parts" {
			sort.Slice(vals, func(i, j int) bool {
				a, _ := strconv.Atoi(vals[i])
				b, _ := strconv.Atoi(vals[j])
				return a < b
			})
		} else {
			sort.Strings(vals)
		}
		out[axis] = vals
	}
	return out
}

func collectMetrics(cells []report.Cell) []string {
	set := map[string]bool{}
	for _, c := range cells {
		set[c.Metric] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func axisLabel(axis string) string {
	switch axis {
	case "parts":
		return "partition counts"
	case "strategy":
		return "strategies"
	}
	return axis + "s"
}
