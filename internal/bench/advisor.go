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
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// advisorRegretTol is the per-workload bound on the advisor's regret: the
// chosen strategy's measured total may exceed the best strategy's by at
// most this fraction. It is looser than fig5.9's 10% because the
// all-strategies leaves pool workloads across cluster shapes.
const advisorRegretTol = 0.20

// advCases are the graded workloads: fig5.9's and fig9.3's cases plus the
// natural/non-natural PowerLyra pair of fig6.6.
func advCases() []treeCase {
	return append(treeCases(),
		treeCase{partition.PowerLyra, onPowerLyra, "uk-web", "PageRank(10)", cluster.EC2x25, 0},
		treeCase{partition.PowerLyra, onPowerLyra, "uk-web", "WCC", cluster.EC2x25, 0})
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
			measured := make([]caseTotals, len(cases))
			for i, c := range cases {
				m, err := measureCase(cfg, c, train)
				if err != nil {
					return nil, err
				}
				measured[i] = m
			}
			// Ingress and replication sweeps give the learner its
			// short-job/long-job structure and cover datasets the
			// end-to-end cases don't reach.
			for _, engineName := range []string{enginePowerGraph, enginePowerLyra} {
				spec := sweepSpec{engine: engineName, datasets: pgDatasets,
					clusters: []cluster.Config{cluster.EC2x25}, strategies: caseStrategies(engineName),
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
			allWithin, agreeCount := true, 0
			var advSum, treeSum float64
			for i, c := range cases {
				m := measured[i]
				// The advisor's own observation for this workload carries
				// the measured feature vector (ratio included); replaying
				// it is the regret the ISSUE gates on.
				var w decision.Workload
				found := false
				for _, o := range mdl.Observations(c.sys.engine) {
					if o.Kind == advisor.KindTotal && o.Dataset == c.ds && o.App == c.app && o.Variant == c.variant() {
						w, found = o.W, true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("bench: advisor extracted no observation for %s/%s/%s", c.sys.engine, c.ds, c.job())
				}
				adv, err := mdl.Recommend(c.tree, w)
				if err != nil {
					return nil, err
				}
				tree, err := trees.Recommend(c.tree, w)
				if err != nil {
					return nil, err
				}
				advT, err := m.total(adv.Strategy)
				if err != nil {
					return nil, err
				}
				treeT, err := m.total(tree.Strategy)
				if err != nil {
					return nil, err
				}
				advRegret, treeRegret := advT/m.bestT-1, treeT/m.bestT-1
				agree := adv.Strategy == tree.Strategy
				if agree {
					agreeCount++
				}
				if advRegret > advisorRegretTol {
					allWithin = false
				}
				advSum += advRegret
				treeSum += treeRegret
				d := c.dims("")
				r.Row(d).
					Col(c.sys.engine, c.ds, c.job(), adv.Strategy, tree.Strategy, m.best).
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
