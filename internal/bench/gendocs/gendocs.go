// Command gendocs regenerates docs/EXPERIMENTS.md from two sources: the
// bench registry (each experiment's id, title and paper artifact) and the
// committed scale-1 baseline BENCH_seed1.json (its cells and checks). It
// writes one section per experiment with its paper artifact, the dimension
// values its cells cover, its metrics, and its structured checks. It runs
// no experiment: TestCellsMatchCommittedBaseline holds the baseline to a
// fresh run, so the catalog is as current as the baseline.
//
// Invoked via `go generate ./internal/bench`; TestCatalogIsCurrent fails
// when the committed catalog is stale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

func main() {
	log.SetFlags(0)
	out := flag.String("o", "docs/EXPERIMENTS.md", "output file; BENCH_seed1.json is read from the parent of its directory")
	flag.Parse()

	// The catalog lives in docs/, one level below the baseline.
	base, err := loadBaseline(filepath.Join(filepath.Dir(*out), "..", "BENCH_seed1.json"))
	if err != nil {
		log.Fatal(err)
	}
	doc, err := render(bench.All(), base)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gendocs: wrote %s (%d experiments)\n", *out, len(bench.All()))
}

// loadBaseline decodes the committed report.
func loadBaseline(path string) (*report.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return report.Decode(f)
}

// render is the catalog document for the registered experiments, a pure
// function of them and the baseline. A registered experiment the baseline
// lacks fails the catalog.
func render(exps []bench.Experiment, base *report.Report) (string, error) {
	byID := map[string]report.Experiment{}
	for _, e := range base.Experiments {
		byID[e.ID] = e
	}
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
			"`go run ./cmd/benchrunner -run <id>`.\n\n", len(exps))
	for _, e := range exps {
		res, ok := byID[e.ID]
		if !ok {
			return "", fmt.Errorf("gendocs: %s is not in the baseline (regenerate BENCH_seed1.json first)", e.ID)
		}
		writeExperiment(&sb, e, res)
	}
	return sb.String(), nil
}

func writeExperiment(sb *strings.Builder, e bench.Experiment, res report.Experiment) {
	fmt.Fprintf(sb, "## `%s` — %s\n\n", e.ID, e.Title)
	fmt.Fprintf(sb, "**Paper:** %s\n\n", e.Paper)

	dims := collectDims(res.Cells)
	for _, axis := range []string{"dataset", "strategy", "app", "engine", "cluster", "parts", "variant"} {
		if vals := dims[axis]; len(vals) > 0 {
			fmt.Fprintf(sb, "- **%s:** %s\n", axisLabel(axis), strings.Join(vals, ", "))
		}
	}
	fmt.Fprintf(sb, "- **metrics:** %s\n", strings.Join(dims["metric"], ", "))
	fmt.Fprintf(sb, "- **cells:** %d\n\n", len(res.Cells))

	if len(res.Checks) > 0 {
		sb.WriteString("Checks:\n\n")
		for _, c := range res.Checks {
			fmt.Fprintf(sb, "- %s %s\n", bench.Mark(c.Pass), c.Claim)
		}
		sb.WriteString("\n")
	}
}

// collectDims gathers the distinct values each dimension axis, and the
// metric name, takes across the experiment's cells, sorted for stable
// output.
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
		add("metric", c.Metric)
		if c.Dims.Parts != 0 {
			add("parts", strconv.Itoa(c.Dims.Parts))
		}
	}
	out := map[string][]string{}
	//graphlint:unordered fills a map, one key per axis, so visit order cannot show
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

func axisLabel(axis string) string {
	switch axis {
	case "parts":
		return "partition counts"
	case "strategy":
		return "strategies"
	}
	return axis + "s"
}
