package advisor_test

import (
	"fmt"

	"graphpart/internal/advisor"
	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// ExampleFit fits the empirical advisor on a small measured report and
// asks it for a PowerGraph strategy. Real inputs come from `benchrunner
// -json` (the cells) and `gengraph -manifest` (the dataset features); here
// they are two hand-made workloads — a road network where the greedy
// family wins and a skewed web graph where Grid wins.
func ExampleFit() {
	cell := func(ds, strat string, total float64) report.Cell {
		return report.Cell{
			Dims:   report.Dims{Engine: "PowerGraph", Dataset: ds, Strategy: strat, App: "PageRank(C)", Cluster: "EC2-25", Parts: 25},
			Metric: "total-s", Value: total, Unit: "s",
		}
	}
	rep := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Tool:          "example",
		Experiments: []report.Experiment{{ID: "train", Cells: []report.Cell{
			cell("road", "HDRF", 1.0), cell("road", "Grid", 2.0),
			cell("web", "HDRF", 3.0), cell("web", "Grid", 2.0),
		}}},
	}
	mans := []datasets.Manifest{
		{Name: "road", Class: graph.LowDegree,
			Stats: graph.DegreeStats{MaxDegree: 8, AvgDegree: 3.2, Gini: 0.08}},
		{Name: "web", Class: graph.PowerLaw,
			Stats: graph.DegreeStats{MaxDegree: 3000, AvgDegree: 41, Gini: 0.79, Alpha: 1.2, R2: 0.83, LowDegreeRatio: 0.52}},
	}

	w := advisor.WorkloadFor(mans[1], 25, 0.5, "PageRank(C)")
	m, err := advisor.Fit(rep, mans)
	if err != nil {
		panic(err)
	}
	rec, err := m.Recommend(partition.PowerGraph, w)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s → %s (source %s, confidence %.2f)\n", w.Dataset, rec.Strategy, rec.Source, rec.Confidence)
	// Output:
	// web → Grid (source empirical, confidence 1.00)
}
