package bench

// PowerGraph experiments: chapter 5 (Figs 5.3–5.9, Table 5.1).

import (
	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/report"
)

// Engine dimension labels for result cells.
const (
	enginePowerGraph = "PowerGraph"
	enginePowerLyra  = "PowerLyra"
	engineGraphX     = "GraphX"
)

// powerGraphStrategies are the measurable PowerGraph strategies (PDS is in
// Table 1.1 but excluded from measurements for cluster-size reasons,
// §5.2.3).
var powerGraphStrategies = []string{"Random", "Grid", "Oblivious", "HDRF"}

// correlationTable builds a Fig 5.3/5.4/5.5-style result for one metric —
// every paper application over every PowerGraph strategy on uk-web, EC2-25
// — and appends the per-application linear-fit checks. The three figures
// read the same points; measure's cache simulates each once.
func correlationTable(id, title, metricName, unit string, pick func(*point) float64) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: metricName + " is an increasing linear function of replication factor for every application (PowerGraph, EC2-25, UK-web)",
		Run: func(cfg Config) (*Result, error) {
			cc := cluster.EC2x25
			r := NewResult(id, title, "app", "strategy", "replication-factor", metricName)
			type series struct {
				app    string
				points []*point
			}
			var all []series
			for _, spec := range paperApps() {
				pts, err := measureEach(cfg, onPowerGraph, "uk-web", powerGraphStrategies, spec.name, cc)
				if err != nil {
					return nil, err
				}
				all = append(all, series{spec.name, pts})
				for _, p := range pts {
					r.Row(report.Dims{Dataset: "uk-web", Strategy: p.strategy, App: spec.name,
						Engine: enginePowerGraph, Cluster: clusterName(cc), Parts: cc.NumParts()}).
						Col(spec.name, p.strategy).
						Metric("replication-factor", p.rf, "ratio", 3).
						Metric(metricName, pick(p), unit, 3)
				}
			}
			for _, s := range all {
				fit, err := fitTrend(s.points, pick, nil)
				if err != nil {
					continue
				}
				fd := report.Dims{Dataset: "uk-web", App: s.app, Engine: enginePowerGraph, Cluster: clusterName(cc)}
				r.Cell(fd, "fit-slope", fit.Slope, "")
				r.Cell(fd, "fit-r2", fit.R2, "")
				pass := fit.Slope > 0 && fit.R2 >= 0.7
				verdict := "LINEAR-INCREASING ✓"
				if !pass {
					verdict = "correlation weak ✗"
				}
				r.Checkf(pass, metricName+" increases linearly with replication factor for "+s.app,
					"%s: slope=%.4g R²=%.3f → %s", s.app, fit.Slope, fit.R2, verdict)
				// Draw the PageRank(10) panel as the figure.
				if s.app == "PageRank(10)" {
					r.Figure = trendScatter("PageRank(10): "+metricName+" vs replication factor", metricName, s.points, pick, fit)
				}
			}
			return r, nil
		},
	}
}

// pgClusters are the three PowerGraph/PowerLyra cluster sizes (§4.1).
var pgClusters = []cluster.Config{cluster.Local9, cluster.EC2x16, cluster.EC2x25}

// pgDatasets are the five datasets chapter 5 measures (§5.3).
var pgDatasets = []string{"road-ca", "road-usa", "livejournal", "twitter", "uk-web"}

func fig56() Experiment {
	return sweepExperiment("fig5.6",
		"Replication factors in PowerGraph (all strategies × graphs × cluster sizes)",
		"HDRF/Oblivious lowest on road networks and uk-web; Grid lowest on LiveJournal/Twitter; Random always highest",
		"Replication factors in PowerGraph",
		sweepSpec{engine: enginePowerGraph, datasets: pgDatasets, clusters: pgClusters,
			strategies: powerGraphStrategies, extra: familyStrategies, metrics: []sweepMetric{sweepRF}},
		func(r *Result, g *sweepGrid) {
			// The best-strategy notes stay restricted to the paper's own
			// strategies.
			cc := cluster.EC2x25
			for _, ds := range pgDatasets {
				best := powerGraphStrategies[0]
				for _, strat := range powerGraphStrategies[1:] {
					if g.at(ds, cc, strat).rf < g.at(ds, cc, best).rf {
						best = strat
					}
				}
				r.Notef("%s (%s): best strategy %s (RF %.2f)", ds, clusterName(cc), best, g.at(ds, cc, best).rf)
			}
		})
}

func fig57() Experiment {
	return sweepExperiment("fig5.7",
		"Ingress time in PowerGraph (all strategies × graphs × cluster sizes)",
		"hash-based partitioners are faster on power-law graphs; Grid usually fastest, then Random; all strategies similar on road networks",
		"Ingress time (s) in PowerGraph",
		sweepSpec{engine: enginePowerGraph, datasets: pgDatasets, clusters: pgClusters,
			strategies: powerGraphStrategies, extra: familyStrategies, metrics: []sweepMetric{sweepIngress}},
		func(r *Result, g *sweepGrid) {
			// Verdicts on the EC2-25 cluster.
			for _, ds := range []string{"twitter", "uk-web"} {
				grid := g.at(ds, cluster.EC2x25, "Grid").ingressSeconds
				hdrf := g.at(ds, cluster.EC2x25, "HDRF").ingressSeconds
				pass := grid < hdrf
				r.Checkf(pass, "hash-based ingress faster than greedy on the skewed graph "+ds,
					"%s: Grid ingress %.4fs vs HDRF %.4fs (hash faster on skewed graphs %s)", ds, grid, hdrf, Mark(pass))
			}
		})
}

func fig58() Experiment {
	return Experiment{
		ID:    "fig5.8",
		Title: "In-degree distributions of the three skewed graphs",
		Paper: "LiveJournal and Twitter sit below the power-law regression line at low degrees (deficit); uk-web tracks the line",
		Run: func(cfg Config) (*Result, error) {
			r := NewResult("fig5.8", "In-degree distribution + power-law fit",
				"graph", "alpha", "R2", "low-degree-ratio", "max-in-degree")
			for _, ds := range []string{"livejournal", "twitter", "uk-web"} {
				g, err := loadGraph(cfg, ds)
				if err != nil {
					return nil, err
				}
				// The figure plots in-degrees; classification evidence uses
				// total degree (see graph.Classify), reported via the
				// dataset class check below.
				fit := graph.FitPowerLaw(g.InDegreeHistogram())
				r.Row(report.Dims{Dataset: ds}).
					Col(ds).
					Metric("alpha", fit.Alpha, "", 3).
					Metric("R2", fit.R2, "", 3).
					Metric("low-degree-ratio", fit.LowDegreeRatio, "ratio", 3).
					Metric("max-in-degree", float64(g.MaxInDegree()), "edges", 3)
				info, _ := datasets.Describe(ds)
				cls := graph.Classify(g)
				pass := cls.Class == info.Class
				r.Checkf(pass, "degree classification of "+ds+" matches the paper",
					"%s: classified %s (paper: %s) %s", ds, cls.Class, info.Class, Mark(pass))
			}
			return r, nil
		},
	}
}

func tab51() Experiment {
	return Experiment{
		ID:    "tab5.1",
		Title: "Grid vs HDRF: ingress and compute for PageRank(C) and K-core (PowerGraph, EC2-25, UK-web)",
		Paper: "Grid wins total time for short-running PageRank (faster ingress); HDRF wins for long-running K-core (faster compute)",
		Run: func(cfg Config) (*Result, error) {
			cc := cluster.EC2x25
			r := NewResult("tab5.1", "Grid vs HDRF, ingress vs compute",
				"strategy", "app", "ingress-s", "compute-s", "total-s")
			type job struct{ strat, app string }
			totals := map[job]float64{}
			for _, strat := range []string{"Grid", "HDRF"} {
				for _, appName := range []string{"PageRank(C)", "K-Core"} {
					p, err := measure(cfg, onPowerGraph, "uk-web", strat, appName, cc)
					if err != nil {
						return nil, err
					}
					r.Row(report.Dims{Dataset: "uk-web", Strategy: strat, App: appName,
						Engine: enginePowerGraph, Cluster: clusterName(cc), Parts: cc.NumParts()}).
						Col(strat, appName).
						Metric("ingress-s", p.ingress.Seconds, "s", 2).
						Metric("compute-s", p.stats.ComputeSeconds, "s", 2).
						Metric("total-s", p.totalSeconds(), "s", 2)
					totals[job{strat, appName}] = p.totalSeconds()
				}
			}
			gridPR, hdrfPR := totals[job{"Grid", "PageRank(C)"}], totals[job{"HDRF", "PageRank(C)"}]
			gridKC, hdrfKC := totals[job{"Grid", "K-Core"}], totals[job{"HDRF", "K-Core"}]
			r.Checkf(gridPR < hdrfPR, "Grid wins total time for the short PageRank job",
				"short job (PageRank): Grid total %.4fs vs HDRF %.4fs — Grid wins %s",
				gridPR, hdrfPR, Mark(gridPR < hdrfPR))
			r.Checkf(hdrfKC < gridKC, "HDRF wins total time for the long K-core job",
				"long job (K-core): HDRF total %.4fs vs Grid %.4fs — HDRF wins %s",
				hdrfKC, gridKC, Mark(hdrfKC < gridKC))
			return r, nil
		},
	}
}

// clusterName labels a cluster the way the paper does.
func clusterName(cc cluster.Config) string {
	switch {
	case cc.Machines == 9 && cc.PartsPerMachine <= 1:
		return "Local-9"
	case cc.Machines == 10 && cc.PartsPerMachine <= 1:
		return "Local-10"
	case cc.Machines == 16:
		return "EC2-16"
	case cc.Machines == 25:
		return "EC2-25"
	case cc.Machines == 10:
		return "GraphX-Local-10"
	case cc.Machines == 9:
		return "GraphX-Local-9"
	}
	return "custom"
}
