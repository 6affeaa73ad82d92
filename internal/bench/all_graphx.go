package bench

// GraphX-all-strategies experiments: chapter 9 (Figs 9.1–9.4).

import (
	"fmt"
	"strings"

	"graphpart/internal/cluster"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/partition"
	"graphpart/internal/plot"
	"graphpart/internal/report"
)

// graphxAllStrategies are the nine strategies of §9.1.
func graphxAllStrategies() []string {
	names, _ := partition.SystemStrategies(partition.GraphXAll)
	return names
}

// gx9Iterations: chapter 9 runs everything to 25 iterations (§9.2).
const gx9Iterations = 25

// iterCheckpoints are the iteration counts reported in the cumulative-time
// tables (the x-axis samples of Figs 9.1/9.2).
var iterCheckpoints = []int{1, 5, 10, 15, 20, 25}

// cumulativeAt returns the cumulative time at iteration i (1-based),
// flattening after convergence, as the paper's per-iteration curves do.
func cumulativeAt(st *graphx.Stats, iter int) float64 {
	if len(st.CumulativeSeconds) == 0 {
		return st.PartitionSeconds
	}
	if iter > len(st.CumulativeSeconds) {
		iter = len(st.CumulativeSeconds)
	}
	return st.CumulativeSeconds[iter-1]
}

// gxIterationExperiment builds a Fig 9.1/9.2-style experiment.
func gxIterationExperiment(id, dataset, paper string, check func(r *Result, cum map[string]map[string][]float64)) Experiment {
	return Experiment{
		ID:    id,
		Title: fmt.Sprintf("GraphX-all cumulative per-iteration times (%s, Local-9, 25 iterations)", dataset),
		Paper: paper,
		Run: func(cfg Config) (*Result, error) {
			cc := cluster.GraphXLocal9
			cols := []string{"app", "strategy"}
			for _, ic := range iterCheckpoints {
				cols = append(cols, fmt.Sprintf("t@%d", ic))
			}
			r := NewResult(id, "cumulative seconds at iteration checkpoints (includes partitioning)", cols...)
			// cum[app][strategy] = cumulative seconds at each checkpoint.
			cum := map[string]map[string][]float64{}
			for _, appName := range []string{"SSSP", "WCC", "PageRank"} {
				cum[appName] = map[string][]float64{}
				for _, strat := range graphxAllStrategies() {
					p, err := measure(cfg, onGraphX(gx9Iterations), dataset, strat, appName, cc)
					if err != nil {
						return nil, err
					}
					row := r.Row(gxDims(cc, dataset, strat, appName)).Col(appName, strat)
					var series []float64
					for _, ic := range iterCheckpoints {
						v := cumulativeAt(p.gx, ic)
						series = append(series, v)
						row.Metric(fmt.Sprintf("t@%d", ic), v, "s", 3)
					}
					cum[appName][strat] = series
				}
			}
			// Draw the PageRank panel as the figure.
			var xs []float64
			for _, ic := range iterCheckpoints {
				xs = append(xs, float64(ic))
			}
			var series []plot.Series
			for _, strat := range graphxAllStrategies() {
				series = append(series, plot.Series{Name: strat, Y: cum["PageRank"][strat]})
			}
			var fig strings.Builder
			ln := plot.Lines{Title: "PageRank cumulative time at iteration i (" + dataset + ")",
				XLabel: "iterations", YLabel: "seconds", X: xs, Series: series}
			if err := ln.Render(&fig); err == nil {
				r.Figure = fig.String()
			}
			check(r, cum)
			return r, nil
		},
	}
}

func fig91() Experiment {
	return gxIterationExperiment("fig9.1", "road-ca",
		"on the low-degree road network, (Canonical) Random is fastest for few iterations; the greedy strategies (HDRF/Oblivious) have lower per-iteration slopes and catch up as iterations grow; the crossover appears earliest for PageRank (all vertices active), later for WCC, and not at all for SSSP",
		func(r *Result, cum map[string]map[string][]float64) {
			last := len(iterCheckpoints) - 1
			// CR starts ahead (cheap partitioning).
			early := cum["PageRank"]["CanonicalRandom"][0] <= cum["PageRank"]["HDRF"][0]
			r.Checkf(early, "Canonical Random ahead of HDRF at iteration 1 for PageRank",
				"Canonical Random ahead of HDRF at iteration 1 (PageRank): %s", Mark(early))
			// Greedy slopes are lower for the all-active app.
			slope := func(app, strat string) float64 {
				s := cum[app][strat]
				return s[last] - s[0]
			}
			slopeOK := slope("PageRank", "HDRF") < slope("PageRank", "CanonicalRandom")
			r.Checkf(slopeOK, "HDRF's per-iteration slope is lower than Canonical Random's for PageRank",
				"HDRF per-iteration slope lower than Canonical Random's (PageRank): %s", Mark(slopeOK))
			// Crossover order: PageRank crosses by 25; SSSP does not cross.
			crossed := func(app string) bool {
				return cum[app]["HDRF"][last] < cum[app]["CanonicalRandom"][last]
			}
			pr, sssp := crossed("PageRank"), !crossed("SSSP")
			r.Checkf(pr && sssp, "PageRank crosses over by iteration 25, SSSP never does",
				"PageRank crossover (HDRF beats CR by iter 25): %s; SSSP no crossover: %s", Mark(pr), Mark(sssp))
		})
}

func fig92() Experiment {
	return gxIterationExperiment("fig9.2", "livejournal",
		"on the heavy-tailed graph, 2D is always the best or among the best strategies; Grid follows 2D closely",
		func(r *Result, cum map[string]map[string][]float64) {
			last := len(iterCheckpoints) - 1
			ok := true
			for _, appName := range []string{"SSSP", "WCC", "PageRank"} {
				best := -1.0
				for _, strat := range graphxAllStrategies() {
					v := cum[appName][strat][last]
					if best < 0 || v < best {
						best = v
					}
				}
				if cum[appName]["2D"][last] > best*1.15 {
					ok = false
					r.Notef("%s: 2D (%.3fs) not within 15%% of best (%.3fs) ✗", appName, cum[appName]["2D"][last], best)
				}
			}
			r.Checkf(ok, "2D best or among the best on the heavy-tailed graph for all apps",
				"2D best or among the best on the heavy-tailed graph (all apps): %s", Mark(ok))
			grid := cum["PageRank"]["ResilientGrid"][last] <= cum["PageRank"]["2D"][last]*1.3
			r.Checkf(grid, "Grid follows 2D closely for PageRank",
				"Grid follows 2D closely (PageRank): %s", Mark(grid))
		})
}

func fig94() Experiment {
	return Experiment{
		ID:    "fig9.4",
		Title: "Effect of executor memory on execution time (GraphX-all, road-ca, Local-9)",
		Paper: "three regimes: (1) too little memory → the job fails; (2) fits cluster-wide but not in few executors → unpredictable redistribution attempts inflate time; (3) fits in a few executors → fast, and execution time keeps decreasing as added memory shrinks GC overhead",
		Run: func(cfg Config) (*Result, error) {
			model := cluster.DefaultModel()
			cc := cluster.GraphXLocal9
			a, err := assignment(cfg, "road-ca", "CanonicalRandom", cc.NumParts())
			if err != nil {
				return nil, err
			}
			// The sweep varies the executor budget, which no point key
			// carries, so it calls the app table's runner uncached.
			pageRank, err := appByName("PageRank")
			if err != nil {
				return nil, err
			}
			// Scale the sweep to the graph's working set so the three
			// regimes appear at any dataset scale.
			_, totalMem := cluster.ComputeMem(a, cc, model)
			perMachine := totalMem / float64(cc.Machines)
			r := NewResult("fig9.4", "execution time vs executor memory",
				"executor-mem", "outcome", "fit-attempts", "gc-overhead", "exec-seconds")
			type sample struct {
				frac    float64
				failed  bool
				fits    int
				seconds float64
			}
			var samples []sample
			for _, frac := range []float64{0.5, 0.8, 1.05, 1.3, 1.8, 2.5, 4, 8, 16} {
				mem := perMachine*frac + model.ExecutorBase
				gcfg := cfg.graphxConfig(cc, gx9Iterations)
				gcfg.ExecutorMemBytes = mem
				st, err := pageRank.gx(a, gcfg, model)
				if err != nil {
					return nil, err
				}
				outcome := "ok"
				if st.Failed {
					outcome = "FAILED (case 1)"
				} else if st.FitAttempts > 0 {
					outcome = "redistributed (case 2)"
				} else {
					outcome = "first-attempt fit (case 3)"
				}
				r.Row(report.Dims{Dataset: "road-ca", Strategy: "CanonicalRandom", App: "PageRank",
					Engine: engineGraphX, Cluster: clusterName(cc), Parts: cc.NumParts(),
					Variant: fmt.Sprintf("%.2f×workingset", frac)}).
					Colf("%.2f×workingset", frac).
					Col(outcome).
					Metric("fit-attempts", float64(st.FitAttempts), "attempts", 0).
					Metric("gc-overhead", st.GCOverhead, "ratio", 2).
					Metric("exec-seconds", st.ComputeSeconds, "s", 2)
				samples = append(samples, sample{frac, st.Failed, st.FitAttempts, st.ComputeSeconds})
			}
			// Verdicts.
			c1, c2, c3, dec := false, false, false, true
			var lastOK float64 = -1
			for _, s := range samples {
				if s.failed {
					c1 = true
				}
				if !s.failed && s.fits > 0 {
					c2 = true
				}
				if !s.failed && s.fits == 0 {
					c3 = true
					if lastOK >= 0 && s.seconds > lastOK*1.001 {
						dec = false
					}
					lastOK = s.seconds
				}
			}
			r.Checkf(c1, "case 1: the job fails at low memory",
				"case 1 (failure at low memory) observed: %s", Mark(c1))
			r.Checkf(c2, "case 2: redistribution attempts at middling memory",
				"case 2 (redistribution attempts) observed: %s", Mark(c2))
			r.Checkf(c3, "case 3: first-attempt fit at ample memory",
				"case 3 (first-attempt fit) observed: %s", Mark(c3))
			r.Checkf(dec, "execution time decreases with more memory in case 3",
				"execution time decreases with more memory in case 3 (GC overhead shrinks): %s", Mark(dec))
			return r, nil
		},
	}
}
