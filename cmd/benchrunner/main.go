// Command benchrunner regenerates the paper's tables and figures on the
// simulated cluster and prints them as plain tables; -json also writes the
// machine-readable report, which holds every cell and check. A report is a
// pure function of its config, so two -json runs are compared with diff;
// BENCH_seed1.json is held cell for cell by internal/bench's
// TestCellsMatchCommittedBaseline.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -run fig5.3,tab5.1
//	benchrunner -all [-scale 2] [-seed 7] [-workers 4]
//	benchrunner -all -json bench.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		runIDs  = flag.String("run", "", "comma-separated experiment ids to run")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		seed    = flag.Uint64("seed", 1, "partitioner seed")
		workers = flag.Int("workers", 0, "worker goroutines per layer: concurrent experiments, and each experiment's ingress/engine supersteps (0 = all cores; OS parallelism stays capped by GOMAXPROCS)")
		jsonOut = flag.String("json", "", "write the machine-readable report to this file ('-' for stdout)")
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

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Workers = *workers
	os.Exit(run(selected, cfg, *jsonOut, os.Stdout, os.Stderr))
}

// run executes the selected experiments (concurrently, on cfg.Workers
// goroutines), renders them in input order, writes the report to jsonOut
// when it is set, and returns the process exit code: 0 when everything ran
// and rendered, 1 otherwise.
func run(selected []bench.Experiment, cfg bench.Config, jsonOut string, stdout, stderr io.Writer) int {
	start := time.Now()
	runner := bench.Runner{Config: cfg,
		// Liveness for long concurrent runs: a line lands on stderr the
		// moment an experiment finishes, in completion order, with the time
		// since the run began; tables still render in input order below.
		Progress: func(rr bench.RunResult) {
			fmt.Fprintf(stderr, "[%s done at %v]\n", rr.Experiment.ID, time.Since(start).Round(time.Millisecond))
		},
	}
	results := runner.Run(selected)

	// When the report streams to stdout ("-"), the rendered tables would
	// corrupt it; keep stdout report-only in that case.
	renderTables := jsonOut != "-"

	failed := 0
	for _, rr := range results {
		if rr.Err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", rr.Experiment.ID, rr.Err)
			failed++
			continue
		}
		if renderTables {
			fmt.Fprintf(stdout, "paper: %s\n", rr.Experiment.Paper)
			if err := rr.Result.Render(stdout); err != nil {
				fmt.Fprintf(stderr, "benchrunner: %s: render: %v\n", rr.Experiment.ID, err)
				failed++
			}
		}
	}

	if jsonOut != "" {
		if err := report.WriteFile(jsonOut, stdout, runner.Report(results).Encode); err != nil {
			fmt.Fprintf(stderr, "benchrunner: -json: %v\n", err)
			failed++
		}
	}

	if failed > 0 {
		return 1
	}
	return 0
}
