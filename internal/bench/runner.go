package bench

import (
	"sync"

	"graphpart/internal/par"
	"graphpart/internal/report"
)

// RunResult pairs an experiment with its typed outcome.
type RunResult struct {
	Experiment Experiment
	Result     *Result // nil when Err != nil
	Err        error
}

// Runner executes selected experiments concurrently and assembles the
// typed JSON report. Concurrency is safe because every experiment is
// deterministic and the shared caches (loaded datasets, assignments,
// measured points) are mutex-guarded with once-per-key computation:
// interleaving changes wall-clock only, never a cell value.
//
// Config.Workers bounds each layer independently — up to Workers
// experiments in flight, each running its engine supersteps and ingress
// on up to Workers goroutines. Goroutines beyond GOMAXPROCS time-slice
// rather than add OS-level parallelism, so the layers need no shared
// budget; the bound exists to keep memory in check, not the CPU.
type Runner struct {
	Config Config
	// Progress, when set, is called as each experiment finishes — in
	// completion order, serialized — so long concurrent runs can report
	// liveness before the in-order rendering starts.
	Progress func(RunResult)
}

// Run executes exps on up to Config.Workers goroutines (≤0 = GOMAXPROCS),
// started in input order, and returns the results in input order.
func (r Runner) Run(exps []Experiment) []RunResult {
	out := make([]RunResult, len(exps))
	var progressMu sync.Mutex
	par.Do(par.Workers(r.Config.Workers), len(exps), func(i, _ int) {
		e := exps[i]
		res, err := e.Run(r.Config)
		out[i] = RunResult{Experiment: e, Result: res, Err: err}
		if r.Progress != nil {
			progressMu.Lock()
			r.Progress(out[i])
			progressMu.Unlock()
		}
	})
	return out
}

// Report assembles the machine-readable report: the run manifest (config,
// per-experiment cell and check counts) plus every experiment's cells and
// checks. It reads no clock, so the report is a pure function of (Config,
// experiment list).
func (r Runner) Report(results []RunResult) *report.Report {
	rep := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Tool:          "benchrunner",
		Experiments:   []report.Experiment{},
	}
	rep.Manifest.Config = r.Config.Info()
	for _, rr := range results {
		entry := report.ManifestEntry{ID: rr.Experiment.ID}
		exp := report.Experiment{
			ID:    rr.Experiment.ID,
			Title: rr.Experiment.Title,
			Paper: rr.Experiment.Paper,
			Cells: []report.Cell{},
		}
		if rr.Err != nil {
			entry.Error = rr.Err.Error()
			exp.Error = rr.Err.Error()
		} else {
			exp.Cells = append(exp.Cells, rr.Result.Cells...)
			exp.Checks = rr.Result.Checks
			entry.Cells = len(rr.Result.Cells)
			entry.Checks = len(exp.Checks)
			for _, ch := range exp.Checks {
				if ch.Pass {
					entry.Passed++
				}
			}
		}
		rep.Manifest.Experiments = append(rep.Manifest.Experiments, entry)
		rep.Experiments = append(rep.Experiments, exp)
	}
	return rep
}
