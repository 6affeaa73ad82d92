// Command decide recommends a partitioning strategy for a graph. It always
// runs the paper's decision trees (Figs 5.9, 6.6, 9.3); given a benchrunner
// JSON report it additionally fits the empirical advisor on the measured
// cells and prints both sources side by side, with confidences,
// explanation traces (-explain) and predicted metrics (-predict).
//
// Usage:
//
//	decide -dataset twitter -machines 25 -ratio 2 -app PageRank
//	decide -input graph.csrg -machines 16
//	decide -dataset uk-web -report BENCH_seed1.json -explain -predict
//	decide -dataset road-ca -report BENCH_seed1.json -json -
//
// Exactly one of -input and -dataset must be given.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"graphpart/internal/advisor"
	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// options collects one invocation's switches.
type options struct {
	input      string
	dataset    string
	scale      int
	machines   int
	ratio      float64
	natural    bool
	app        string
	reportPath string
	explain    bool
	predict    bool
	allSystems bool
	jsonOut    string
}

func main() {
	var o options
	flag.StringVar(&o.input, "input", "", "graph file: text edge list or binary .csrg (format sniffed)")
	flag.StringVar(&o.dataset, "dataset", "", "built-in dataset name")
	flag.IntVar(&o.scale, "scale", 1, "dataset scale factor")
	flag.IntVar(&o.machines, "machines", 9, "cluster size")
	flag.Float64Var(&o.ratio, "ratio", 1, "expected compute/ingress time ratio (>1 = long job)")
	flag.BoolVar(&o.natural, "natural", false, "application gathers one direction and scatters the other (implied by a PageRank -app)")
	flag.StringVar(&o.app, "app", "", "benchmark application name (e.g. PageRank(C), WCC); sets -natural for the PageRank family")
	flag.StringVar(&o.reportPath, "report", "", "benchrunner -json report to fit the empirical advisor from")
	flag.BoolVar(&o.explain, "explain", false, "print each rule's decision trace")
	flag.BoolVar(&o.predict, "predict", false, "print the advisor's predicted metrics for its recommendation")
	flag.BoolVar(&o.allSystems, "all-systems", false, "include the PowerLyra-All configuration (GraphX-All is always shown)")
	flag.StringVar(&o.jsonOut, "json", "", "write recommendations as a report.Cell-schema JSON report to this file ('-' for stdout)")
	flag.Parse()

	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decide: %v\n", err)
		if code == 2 {
			flag.Usage()
		}
	}
	os.Exit(code)
}

// run executes one invocation and returns the process exit code: 2 for
// usage errors, 1 for runtime failures, 0 on success.
func run(o options, stdout io.Writer) (int, error) {
	// -input and -dataset are two sources for the same graph: both set is
	// ambiguous (which one wins?), neither is nothing to classify.
	if o.input != "" && o.dataset != "" {
		return 2, fmt.Errorf("-input and -dataset are mutually exclusive; give one")
	}
	if o.input == "" && o.dataset == "" {
		return 2, fmt.Errorf("need -input FILE or -dataset NAME")
	}
	if o.machines < 1 {
		return 2, fmt.Errorf("-machines must be at least 1, got %d", o.machines)
	}
	if math.IsNaN(o.ratio) || math.IsInf(o.ratio, 0) || o.ratio < 0 {
		return 2, fmt.Errorf("-ratio %g must be a finite number >= 0", o.ratio)
	}

	w, man, err := workload(o)
	if err != nil {
		return 1, err
	}

	rules := []decision.Rule{decision.PaperTrees()}
	if o.reportPath != "" {
		mdl, err := fitAdvisor(o.reportPath)
		if err != nil {
			return 1, err
		}
		rules = append(rules, mdl)
	}

	// Recommend once per (system, rule); both renderings derive from the
	// same answers.
	var recs []decision.Recommendation
	for _, sys := range decision.Systems(o.allSystems) {
		for _, rule := range rules {
			rec, err := rule.Recommend(sys, w)
			if err != nil {
				return 1, err
			}
			recs = append(recs, rec)
		}
	}

	if o.jsonOut != "" {
		rep, err := recommendationReport(o, recs, w)
		if err != nil {
			return 1, err
		}
		if err := report.WriteFile(o.jsonOut, stdout, rep.Encode); err != nil {
			return 1, err
		}
		if o.jsonOut == "-" {
			return 0, nil // keep stdout report-only
		}
	}

	printHeader(stdout, o, w, man)
	for _, rec := range recs {
		fmt.Fprintf(stdout, "%-14s %-11s → %-15s (confidence %.2f)\n",
			rec.System, rec.Source, rec.Strategy, rec.Confidence)
		if o.explain {
			for _, line := range rec.Explanation {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
		if o.predict {
			for _, c := range rec.Predicted {
				fmt.Fprintf(stdout, "    predict %-26s %.4g %s  [%s]\n", c.Metric, c.Value, c.Unit, c.Dims.Key())
			}
		}
	}
	fmt.Fprintln(stdout)
	for _, sys := range []partition.System{partition.PowerGraph, partition.PowerLyra} {
		for _, a := range decision.Avoid(sys) {
			fmt.Fprintf(stdout, "avoid on %-11s %-12s %s\n", string(sys)+":", a.Strategy, a.Why)
		}
	}
	return 0, nil
}

// workload builds the feature vector for the requested graph: from its
// manifest for registered datasets, from a fresh classification for files.
func workload(o options) (decision.Workload, datasets.Manifest, error) {
	var man datasets.Manifest
	if o.dataset != "" {
		m, err := datasets.BuildManifest(o.dataset, o.scale)
		if err != nil {
			return decision.Workload{}, man, err
		}
		man = m
	} else {
		g, err := graph.LoadFile(o.input)
		if err != nil {
			return decision.Workload{}, man, err
		}
		man = datasets.MeasureManifest(g)
	}
	w := advisor.WorkloadFor(man, o.machines, o.ratio, o.app)
	// -natural widens the app-derived default (a non-PageRank natural app
	// exists only by assertion); it never narrows it.
	if o.natural {
		w.NaturalApp = true
	}
	return w, man, nil
}

// fitAdvisor loads a benchrunner report and fits the empirical model on
// it, with manifests built (at the report's own scale) for every
// registered dataset.
func fitAdvisor(path string) (*advisor.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := report.Decode(f)
	if err != nil {
		return nil, err
	}
	scale := rep.Manifest.Config.Scale
	if scale < 1 {
		scale = 1
	}
	var mans []datasets.Manifest
	for _, name := range datasets.Names() {
		m, err := datasets.BuildManifest(name, scale)
		if err != nil {
			return nil, err
		}
		mans = append(mans, m)
	}
	return advisor.Fit(rep, mans)
}

func printHeader(w io.Writer, o options, wl decision.Workload, man datasets.Manifest) {
	fmt.Fprintf(w, "graph:      %s (%d vertices, %d edges)\n", man.Name, man.Vertices, man.Edges)
	fmt.Fprintf(w, "class:      %s (max degree %d, avg %.1f", man.Class, man.Stats.MaxDegree, man.Stats.AvgDegree)
	if wl.Class != graph.LowDegree {
		fmt.Fprintf(w, ", gini %.2f, power-law fit α=%.2f R²=%.2f low-degree-ratio=%.2f",
			man.Stats.Gini, man.Stats.Alpha, man.Stats.R2, man.Stats.LowDegreeRatio)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "workload:   %d machines, compute/ingress ratio %.1f, natural=%v", o.machines, o.ratio, wl.NaturalApp)
	if o.app != "" {
		fmt.Fprintf(w, ", app=%s", o.app)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// recommendationReport renders the recommendations in the shared
// report.Cell schema: a confidence cell per recommendation (the chosen
// strategy rides in the dims) plus the advisor's predicted metric cells,
// all tagged with the source rule as the variant.
func recommendationReport(o options, recs []decision.Recommendation, w decision.Workload) (*report.Report, error) {
	var cells []report.Cell
	var checks []report.Check
	for _, rec := range recs {
		cells = append(cells, report.Cell{
			Dims: report.Dims{
				Dataset: w.Dataset, App: w.App,
				Engine: string(rec.System), Strategy: rec.Strategy, Variant: rec.Source,
			},
			Metric: "confidence", Value: rec.Confidence, Unit: "ratio",
		})
		for _, c := range rec.Predicted {
			c.Dims.Variant = rec.Source
			c.Dims.Engine = string(rec.System)
			cells = append(cells, c)
		}
		checks = append(checks, report.Check{
			Claim:    fmt.Sprintf("%s/%s recommends a strategy", rec.System, rec.Source),
			Observed: rec.Strategy,
			Pass:     true,
		})
	}
	rep := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Tool:          "decide",
		Experiments: []report.Experiment{{
			ID:     "decide",
			Title:  fmt.Sprintf("strategy recommendations for %s", w.Dataset),
			Cells:  cells,
			Checks: checks,
		}},
	}
	rep.Manifest.Config = report.ConfigInfo{Scale: o.scale}
	rep.Manifest.Experiments = []report.ManifestEntry{{
		ID: "decide", Cells: len(cells), Checks: len(checks), Passed: len(checks),
	}}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}
