// Command benchrunner regenerates the paper's tables and figures on the
// simulated cluster and emits them as plain text, markdown, CSV, or a
// machine-readable JSON report. A report is a pure function of its config,
// so two -json runs are compared with diff; BENCH_seed1.json is held cell
// for cell by internal/bench's TestCellsMatchCommittedBaseline.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -run fig5.3,tab5.1
//	benchrunner -all [-scale 2] [-seed 7] [-workers 4]
//	benchrunner -all -markdown > EXPERIMENTS-run.md
//	benchrunner -all -json bench.json [-filter dataset=road,strategy=HDRF]
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

// options collects the output switches of one invocation.
type options struct {
	markdown bool
	jsonOut  string
	csvOut   string
	filter   report.Filter
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
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	opts := options{markdown: *markdown, jsonOut: *jsonOut, csvOut: *csvOut}
	err := opts.validate()
	if err == nil {
		opts.filter, err = report.ParseFilter(*filterS)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Workers = *workers
	os.Exit(run(selected, cfg, opts, os.Stdout, os.Stderr))
}

// validate refuses output switches that cannot all be honoured, before
// anything runs.
func (o options) validate() error {
	switch {
	case o.jsonOut == "-" && o.csvOut == "-":
		return errors.New("-json - and -csv - cannot both stream to stdout")
	case o.jsonOut != "" && o.jsonOut != "-" && o.csvOut != "" && o.csvOut != "-" &&
		filepath.Clean(o.jsonOut) == filepath.Clean(o.csvOut):
		return fmt.Errorf("-json and -csv both name %s: the CSV would overwrite the report", filepath.Clean(o.jsonOut))
	case o.markdown && (o.jsonOut == "-" || o.csvOut == "-"):
		return errors.New("-markdown cannot render while a report streams to stdout; write the report to a file instead")
	}
	return nil
}

// run executes the selected experiments (concurrently, on cfg.Workers
// goroutines), renders them in input order, emits the requested reports,
// and returns the process exit code: 0 when everything ran and rendered,
// 1 otherwise.
func run(selected []bench.Experiment, cfg bench.Config, opts options, stdout, stderr io.Writer) int {
	start := time.Now()
	runner := bench.Runner{Config: cfg, Filter: opts.filter,
		// Liveness for long concurrent runs: a line lands on stderr the
		// moment an experiment finishes, in completion order, with the time
		// since the run began; tables still render in input order below.
		Progress: func(rr bench.RunResult) {
			fmt.Fprintf(stderr, "[%s done at %v]\n", rr.Experiment.ID, time.Since(start).Round(time.Millisecond))
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
