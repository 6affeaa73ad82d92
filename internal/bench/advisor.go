package bench

// Advisor validation: fit the empirical recommender (internal/advisor) on
// this run's own measurements and score it against the paper's decision
// trees. For every end-to-end workload the advisor's pick must land within
// tolerance of the measured-best strategy (regret), and on average it must
// do no worse than the trees it is meant to supersede (agreement is
// reported per workload, not required: where the measurements disagree
// with the paper's rules of thumb, the advisor should follow the
// measurements).

import (
	"fmt"

	"graphpart/internal/advisor"
	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/engine"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

func init() {
	register(advRegret())
}

// advisorRegretTol is the per-workload bound on the advisor's regret: the
// chosen strategy's measured total may exceed the best strategy's by at
// most this fraction. It is looser than fig5.9's 10% because the
// all-strategies leaves pool workloads across cluster shapes.
const advisorRegretTol = 0.20

// advCase is one end-to-end workload the advisor is graded on.
type advCase struct {
	engine string
	sys    partition.System
	ds     string
	app    string
	iters  int // GraphX iteration count; 0 on the vertex-cut engines
	cc     cluster.Config
}

// variant is the Variant dimension of the case's cells: the iteration
// count for GraphX jobs, derived from iters so label and run cannot drift.
func (c advCase) variant() string {
	if c.iters > 0 {
		return itersVariant(c.iters)
	}
	return ""
}

func (c advCase) job() string {
	if v := c.variant(); v != "" {
		return c.app + " " + v
	}
	return c.app
}

// advStrategies is the measurable strategy set per engine. PowerLyra keeps
// the engine sweep affordable with its four headline strategies.
func advStrategies(engine string) []string {
	switch engine {
	case enginePowerGraph:
		return powerGraphStrategies
	case enginePowerLyra:
		return []string{"Random", "Grid", "Oblivious", "Hybrid"}
	}
	return graphxAllStrategies()
}

// totalSeconds measures ingress (partitioning) + compute for the case
// under one strategy.
func (c advCase) totalSeconds(cfg Config, strat string) (float64, error) {
	mode := engine.ModePowerLyra
	switch c.engine {
	case engineGraphX:
		return graphxTotalSeconds(cfg, c.ds, strat, c.app, c.iters, c.cc)
	case enginePowerGraph:
		mode = engine.ModePowerGraph
	}
	p, err := measure(cfg, mode, c.ds, strat, c.app, c.cc)
	if err != nil {
		return 0, err
	}
	return p.totalSeconds(), nil
}

// advCases are the graded workloads: fig5.9's and fig9.3's cases plus the
// natural/non-natural PowerLyra pair of fig6.6.
func advCases() []advCase {
	pgCC, gxCC, plCC := cluster.EC2x25, cluster.GraphXLocal9, cluster.EC2x25
	return []advCase{
		{enginePowerGraph, partition.PowerGraph, "road-ca", "PageRank(C)", 0, pgCC},
		{enginePowerGraph, partition.PowerGraph, "road-usa", "PageRank(C)", 0, pgCC},
		{enginePowerGraph, partition.PowerGraph, "livejournal", "PageRank(C)", 0, pgCC},
		{enginePowerGraph, partition.PowerGraph, "uk-web", "PageRank(C)", 0, pgCC},
		{enginePowerGraph, partition.PowerGraph, "uk-web", "K-Core", 0, pgCC},
		{engineGraphX, partition.GraphXAll, "road-ca", "PageRank", 2, gxCC},
		{engineGraphX, partition.GraphXAll, "road-ca", "PageRank", 25, gxCC},
		{engineGraphX, partition.GraphXAll, "livejournal", "PageRank", 2, gxCC},
		{engineGraphX, partition.GraphXAll, "livejournal", "PageRank", 25, gxCC},
		{enginePowerLyra, partition.PowerLyra, "uk-web", "PageRank(10)", 0, plCC},
		{enginePowerLyra, partition.PowerLyra, "uk-web", "WCC", 0, plCC},
	}
}

func advRegret() Experiment {
	return Experiment{
		ID:    "adv.regret",
		Title: "Empirical advisor vs paper trees (agreement and regret)",
		Paper: "a recommender fitted on the measured cells should pick a strategy within 20% of the measured best for every (dataset, app, engine) workload, and its mean regret should not exceed the paper trees'",
		Run: func(cfg Config) (*Result, error) {
			cases := advCases()

			// --- measure: training cells for the advisor ---------------
			train := NewResult("train", "advisor training cells")
			totals := map[advCase]map[string]float64{}
			for _, c := range cases {
				totals[c] = map[string]float64{}
				for _, strat := range advStrategies(c.engine) {
					tt, err := c.totalSeconds(cfg, strat)
					if err != nil {
						return nil, err
					}
					totals[c][strat] = tt
					train.Cell(report.Dims{Dataset: c.ds, Strategy: strat, App: c.app,
						Engine: c.engine, Cluster: clusterName(c.cc), Parts: c.cc.NumParts(),
						Variant: c.variant()}, "total-s", tt, "s")
				}
			}
			// Ingress and replication sweeps give the learner its
			// short-job/long-job structure and cover datasets the
			// end-to-end cases don't reach.
			for _, engineName := range []string{enginePowerGraph, enginePowerLyra} {
				spec := sweepSpec{engine: engineName, datasets: pgDatasets,
					clusters: []cluster.Config{cluster.EC2x25}, strategies: advStrategies(engineName),
					metrics: []sweepMetric{sweepIngress, sweepRF}}
				if _, err := spec.run(cfg, train); err != nil {
					return nil, err
				}
			}

			// --- fit ----------------------------------------------------
			trainRep := &report.Report{
				SchemaVersion: report.SchemaVersion,
				Tool:          "bench/adv.regret",
				Experiments:   []report.Experiment{{ID: train.ID, Title: train.Title, Cells: train.Cells}},
			}
			var mans []datasets.Manifest
			for _, ds := range pgDatasets {
				m, err := datasets.BuildManifest(ds, cfg.scale())
				if err != nil {
					return nil, err
				}
				mans = append(mans, m)
			}
			mdl, err := advisor.Fit(trainRep, mans)
			if err != nil {
				return nil, err
			}

			// --- grade --------------------------------------------------
			r := NewResult("adv.regret", "advisor vs paper tree on measured workloads",
				"engine", "graph", "job", "advisor", "tree", "best",
				"adv-regret", "tree-regret", "agree")
			trees := decision.PaperTrees()
			regretOf := func(scores map[string]float64, best float64, strat string) (float64, error) {
				s, ok := scores[strat]
				if !ok {
					return 0, fmt.Errorf("bench: recommended strategy %q was not measured", strat)
				}
				return s/best - 1, nil
			}
			allWithin, agreeCount := true, 0
			var advSum, treeSum float64
			for _, c := range cases {
				// The advisor's own observation for this workload carries
				// the measured feature vector (ratio included); replaying
				// it is the regret the ISSUE gates on.
				var w decision.Workload
				found := false
				for _, o := range mdl.Observations(c.engine) {
					if o.Kind == advisor.KindTotal && o.Dataset == c.ds && o.App == c.app && o.Variant == c.variant() {
						w, found = o.W, true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("bench: advisor extracted no observation for %s/%s/%s", c.engine, c.ds, c.job())
				}
				adv, err := mdl.Recommend(c.sys, w)
				if err != nil {
					return nil, err
				}
				tree, err := trees.Recommend(c.sys, w)
				if err != nil {
					return nil, err
				}
				best, bestT := "", -1.0
				//graphlint:unordered argmin with a total tie-break on name — order-independent
				for strat, tt := range totals[c] {
					if bestT < 0 || tt < bestT || (tt == bestT && strat < best) {
						best, bestT = strat, tt
					}
				}
				advRegret, err := regretOf(totals[c], bestT, adv.Strategy)
				if err != nil {
					return nil, err
				}
				treeRegret, err := regretOf(totals[c], bestT, tree.Strategy)
				if err != nil {
					return nil, err
				}
				agree := adv.Strategy == tree.Strategy
				if agree {
					agreeCount++
				}
				if advRegret > advisorRegretTol {
					allWithin = false
				}
				advSum += advRegret
				treeSum += treeRegret
				d := report.Dims{Dataset: c.ds, App: c.app, Engine: c.engine,
					Cluster: clusterName(c.cc), Parts: c.cc.NumParts(), Variant: c.variant()}
				r.Row(d).
					Col(c.engine, c.ds, c.job(), adv.Strategy, tree.Strategy, best).
					Metric("advisor-regret", advRegret, "ratio", 3).
					MetricAt(d, "tree-regret", treeRegret, "ratio", 3).
					Colf("%v", agree)
				r.Cell(d, "advisor-confidence", adv.Confidence, "ratio")
				r.Cell(d, "agree", boolCell(agree), "")
			}
			n := float64(len(cases))
			r.Cell(report.Dims{}, "agreement-rate", float64(agreeCount)/n, "ratio")
			r.Cell(report.Dims{}, "mean-advisor-regret", advSum/n, "ratio")
			r.Cell(report.Dims{}, "mean-tree-regret", treeSum/n, "ratio")
			r.Checkf(allWithin, "advisor recommendation within 20% of the measured best everywhere",
				"advisor recommendation within 20%% of the measured best everywhere: %s", Mark(allWithin))
			noWorse := advSum <= treeSum+1e-9
			r.Checkf(noWorse, "advisor mean regret no worse than the paper trees'",
				"mean regret: advisor %.3f vs trees %.3f %s", advSum/n, treeSum/n, Mark(noWorse))
			r.Notef("agreement with the paper trees: %d/%d workloads (disagreements are where the measurements beat the rules of thumb)", agreeCount, len(cases))
			return r, nil
		},
	}
}

func boolCell(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
