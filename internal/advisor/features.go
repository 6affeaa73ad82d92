// Package advisor recommends partitioning strategies from measurements
// instead of rules of thumb: it consumes a benchrunner JSON report
// (report.Report) plus dataset manifests (datasets.Manifest), extracts
// per-workload features and per-strategy scores, and fits a small
// interpretable decision model — learned thresholds over the measured
// cells, one tree per engine. The fitted Model implements decision.Rule,
// so it plugs in beside the paper's decision trees (decision.PaperTrees)
// everywhere a recommendation source is consumed, with a confidence and
// an explanation trace attached to every answer.
package advisor

import (
	"strings"

	"graphpart/internal/datasets"
	"graphpart/internal/decision"
)

// featureNames are the workload features the learner may split on, in the
// fixed order the split search scans them. First-feature-wins tie-breaking
// makes fitting deterministic: the same report and manifests always yield
// the same model.
var featureNames = []string{
	"class", "gini", "alpha", "r2", "lowDegreeRatio",
	"maxDegree", "avgDegree", "ratio", "natural",
	"machines", "squareMachines",
}

// featureValue projects one named feature out of a workload. Booleans
// become 0/1 and the degree class its ordinal, so every split is a
// threshold over one number.
func featureValue(w decision.Workload, name string) float64 {
	switch name {
	case "class":
		return float64(w.Class)
	case "gini":
		return w.Gini
	case "alpha":
		return w.Alpha
	case "r2":
		return w.R2
	case "lowDegreeRatio":
		return w.LowDegreeRatio
	case "maxDegree":
		return float64(w.MaxDegree)
	case "avgDegree":
		return w.AvgDegree
	case "ratio":
		return w.ComputeIngressRatio
	case "natural":
		if w.NaturalApp {
			return 1
		}
		return 0
	case "machines":
		return float64(w.Machines)
	case "squareMachines":
		if decision.PerfectSquare(w.Machines) {
			return 1
		}
		return 0
	}
	return 0
}

// NaturalApp reports whether a benchmark application gathers in one
// direction and scatters in the other (§6.1) — the property PowerLyra's
// Hybrid engine exploits. Of the paper's application set only the
// PageRank family is natural.
func NaturalApp(app string) bool {
	return strings.HasPrefix(app, "PageRank")
}

// WorkloadFor builds the decision.Workload for a measured dataset under a
// concrete job: the manifest supplies the graph-side features (class and
// degree-skew statistics), the arguments the job side. It is the single
// translation point between the dataset subsystem and the decision layer.
func WorkloadFor(m datasets.Manifest, machines int, ratio float64, app string) decision.Workload {
	return decision.Workload{
		Class:               m.Class,
		Machines:            machines,
		ComputeIngressRatio: ratio,
		NaturalApp:          NaturalApp(app),
		Dataset:             m.Name,
		App:                 app,
		DegreeStats:         m.Stats,
	}
}
