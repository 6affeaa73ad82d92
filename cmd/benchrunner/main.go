// Command benchrunner regenerates the paper's tables and figures on the
// simulated cluster and emits them as plain text, markdown, CSV, or a
// machine-readable JSON report with cross-run regression diffing.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -run fig5.3,tab5.1
//	benchrunner -all [-scale 2] [-seed 7] [-workers 4]
//	benchrunner -all -markdown > EXPERIMENTS-run.md
//	benchrunner -all -json bench.json [-filter dataset=road,strategy=HDRF]
//	benchrunner -all -json bench.json -compare BENCH_seed1.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

// options collects the output/compare switches of one invocation.
type options struct {
	markdown  bool
	jsonOut   string
	csvOut    string
	compare   string
	tolerance float64
	filter    report.Filter
	// subset holds the -run experiment IDs; nil means -all. -compare
	// scopes the baseline to it so a partial run only gates what it ran.
	subset []string
}

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		runIDs   = flag.String("run", "", "comma-separated experiment ids to run")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		seed     = flag.Uint64("seed", 1, "partitioner seed")
		workers  = flag.Int("workers", 0, "worker goroutines per layer: concurrent experiments, and each experiment's ingress/engine supersteps (0 = all cores; OS parallelism stays capped by GOMAXPROCS)")
		markdown = flag.Bool("markdown", false, "emit Markdown instead of plain tables")
		jsonOut  = flag.String("json", "", "write the machine-readable report to this file ('-' for stdout)")
		csvOut   = flag.String("csv", "", "write the typed cells as CSV to this file ('-' for stdout)")
		compare  = flag.String("compare", "", "baseline report to diff this run against; regressions exit non-zero")
		tol      = flag.Float64("tolerance", report.DefaultRelTol, "relative tolerance for -compare cell diffs, applied to every cell alike (a report holds no wall-clock value; 0 demands exact equality)")
		filterS  = flag.String("filter", "", "dimension filter for report cells, e.g. dataset=road,strategy=HDRF")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	var subset []string
	switch {
	case *all:
		selected = bench.All()
	case *runIDs != "":
		seen := map[string]bool{}
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if seen[id] {
				continue // a repeated ID would produce a report Decode rejects
			}
			seen[id] = true
			e, ok := bench.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
			subset = append(subset, id)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut == "-" && *csvOut == "-" {
		fmt.Fprintln(os.Stderr, "benchrunner: -json - and -csv - cannot both stream to stdout")
		os.Exit(2)
	}
	if *markdown && (*jsonOut == "-" || *csvOut == "-") {
		fmt.Fprintln(os.Stderr, "benchrunner: -markdown cannot render while a report streams to stdout; write the report to a file instead")
		os.Exit(2)
	}

	filter, err := report.ParseFilter(*filterS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Workers = *workers

	opts := options{
		markdown:  *markdown,
		jsonOut:   *jsonOut,
		csvOut:    *csvOut,
		compare:   *compare,
		tolerance: *tol,
		filter:    filter,
		subset:    subset,
	}
	os.Exit(run(selected, cfg, opts, os.Stdout, os.Stderr))
}

// run executes the selected experiments (concurrently, on cfg.Workers
// goroutines), renders them in input order, emits the requested reports,
// and returns the process exit code: 0 when everything ran, rendered, and
// (with -compare) matched the baseline; 1 otherwise. The baseline is read
// before anything runs, so an unreadable one, or one from another config,
// costs no experiment time.
func run(selected []bench.Experiment, cfg bench.Config, opts options, stdout, stderr io.Writer) int {
	var base *report.Report
	if opts.compare != "" {
		var err error
		if base, err = loadBaseline(opts.compare, cfg.Info()); err != nil {
			fmt.Fprintf(stderr, "benchrunner: -compare: %v\n", err)
			return 1
		}
	}
	runner := bench.Runner{Config: cfg, Filter: opts.filter,
		// Liveness for long concurrent runs: the timing line lands on
		// stderr the moment an experiment finishes, in completion order;
		// tables still render in input order below.
		Progress: func(rr bench.RunResult) {
			fmt.Fprintf(stderr, "[%s done in %v]\n", rr.Experiment.ID,
				time.Duration(rr.Seconds*float64(time.Second)).Round(time.Millisecond))
		},
	}
	results := runner.Run(selected)

	// When a report streams to stdout ("-"), the rendered tables would
	// corrupt it; keep stdout report-only in that case.
	renderTables := opts.jsonOut != "-" && opts.csvOut != "-"

	failed := 0
	for _, rr := range results {
		if rr.Err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", rr.Experiment.ID, rr.Err)
			failed++
			continue
		}
		if renderTables {
			if opts.markdown {
				if err := renderMarkdown(stdout, rr.Experiment, rr.Result.Table()); err != nil {
					fmt.Fprintf(stderr, "benchrunner: %s: render: %v\n", rr.Experiment.ID, err)
					failed++
				}
			} else {
				fmt.Fprintf(stdout, "paper: %s\n", rr.Experiment.Paper)
				if err := rr.Result.Render(stdout); err != nil {
					fmt.Fprintf(stderr, "benchrunner: %s: render: %v\n", rr.Experiment.ID, err)
					failed++
				}
			}
		}
	}

	rep := runner.Report(results)
	if opts.jsonOut != "" {
		if err := report.WriteFile(opts.jsonOut, stdout, rep.Encode); err != nil {
			fmt.Fprintf(stderr, "benchrunner: -json: %v\n", err)
			failed++
		}
	}
	if opts.csvOut != "" {
		if err := report.WriteFile(opts.csvOut, stdout, func(w io.Writer) error {
			return writeCSV(w, rep)
		}); err != nil {
			fmt.Fprintf(stderr, "benchrunner: -csv: %v\n", err)
			failed++
		}
	}
	if base != nil && compareBaseline(base, rep, opts, stderr) > 0 {
		failed++
	}

	if failed > 0 {
		return 1
	}
	return 0
}

// writeCSV flattens the report's cells — already filtered by the Runner,
// so -filter applies to CSV exactly as it does to JSON — under one header.
func writeCSV(w io.Writer, rep *report.Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(bench.CSVHeader); err != nil {
		return err
	}
	for _, e := range rep.Experiments {
		if err := bench.CellsCSV(cw, e.ID, e.Cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// loadBaseline reads the -compare baseline and refuses one produced under
// another (scale, seed, hybridThreshold): a report is a pure function of
// those, so against the wrong baseline every cell reads as a regression.
// Workers is not compared — it never changes a result.
func loadBaseline(path string, cur report.ConfigInfo) (*report.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := report.Decode(f)
	if err != nil {
		return nil, err
	}
	bc := base.Manifest.Config
	if bc.Scale != cur.Scale || bc.Seed != cur.Seed || bc.HybridThreshold != cur.HybridThreshold {
		return nil, fmt.Errorf("%s was produced at (scale %d, seed %d, hybridThreshold %d) but this run is (scale %d, seed %d, hybridThreshold %d); rerun with the baseline's config",
			path, bc.Scale, bc.Seed, bc.HybridThreshold, cur.Scale, cur.Seed, cur.HybridThreshold)
	}
	return base, nil
}

// compareBaseline diffs the fresh report against the baseline and reports
// every regression; it returns how many were found. A -run subset or
// -filter scopes the baseline first, so partial runs only gate the
// experiments and cells they actually produced; a full unfiltered run
// compares against the whole baseline so vanished experiments still flag.
func compareBaseline(base, cur *report.Report, opts options, stderr io.Writer) int {
	if opts.subset != nil || opts.filter != nil {
		base = base.Scoped(opts.subset, opts.filter)
	}
	diffs := report.Compare(base, cur, opts.tolerance)
	for _, d := range diffs {
		fmt.Fprintf(stderr, "benchrunner: regression: %s\n", d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stderr, "benchrunner: %d regression(s) vs %s\n", len(diffs), opts.compare)
	} else {
		fmt.Fprintf(stderr, "benchrunner: no regressions vs %s (%d baseline experiments)\n", opts.compare, len(base.Experiments))
	}
	return len(diffs)
}

func renderMarkdown(w io.Writer, e bench.Experiment, t *bench.Table) error {
	ew := &errWriter{w: w}
	ew.printf("## %s — %s\n\n", t.ID, t.Title)
	ew.printf("**Paper:** %s\n\n", e.Paper)
	ew.printf("| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	ew.printf("| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		ew.printf("| %s |\n", strings.Join(row, " | "))
	}
	// The ASCII figure used to be silently dropped in markdown mode while
	// plain mode printed it; emit it as a fenced code block so both views
	// carry the same content.
	if t.Figure != "" {
		ew.printf("\n```\n%s```\n", t.Figure)
	}
	ew.printf("\n")
	for _, n := range t.Notes {
		ew.printf("- %s\n", n)
	}
	ew.printf("\n")
	return ew.err
}

// errWriter sticks at the first write error so renderMarkdown can report it
// instead of silently dropping output.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, args...)
	}
}
