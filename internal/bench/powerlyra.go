package bench

// PowerLyra experiments: chapter 6 (Figs 6.1–6.6).

import (
	"graphpart/internal/advisor"
	"graphpart/internal/cluster"
	"graphpart/internal/report"
)

// powerLyraStrategies are PowerLyra's measurable native strategies (§6.2;
// PDS excluded as in §5.2.3).
var powerLyraStrategies = []string{"Random", "Grid", "Oblivious", "Hybrid", "H-Ginger"}

// hybridFamily marks the strategies the Figs 6.1/6.2 regression lines
// intentionally exclude: the paper fits the trend through the non-hybrid
// points.
func hybridFamily(name string) bool { return name == "Hybrid" || name == "H-Ginger" }

// lyraPoints runs one application over all PowerLyra strategies on uk-web,
// EC2-25, under the hybrid engine — the sweep behind Figs 6.1–6.3.
func lyraPoints(cfg Config, appName string) ([]*point, error) {
	return measureEach(cfg, onPowerLyra, "uk-web", powerLyraStrategies, appName, cluster.EC2x25)
}

// plDims are the cell dimensions of the chapter-6 uk-web/EC2-25 sweeps.
func plDims(strategy, app string) report.Dims {
	return report.Dims{Dataset: "uk-web", Strategy: strategy, App: app,
		Engine: enginePowerLyra, Cluster: clusterName(cluster.EC2x25), Parts: cluster.EC2x25.NumParts()}
}

func fig61() Experiment {
	return Experiment{
		ID:    "fig6.1",
		Title: "Network IO vs. replication factor under the hybrid engine (PowerLyra, EC2-25, UK-web, PageRank)",
		Paper: "Hybrid and Hybrid-Ginger use less network than their replication factor predicts when running natural applications (they sit below the regression line)",
		Run: func(cfg Config) (*Result, error) {
			points, err := lyraPoints(cfg, "PageRank(10)")
			if err != nil {
				return nil, err
			}
			net := func(p *point) float64 { return p.stats.AvgNetInGB }
			fit, err := fitTrend(points, net, hybridFamily)
			if err != nil {
				return nil, err
			}
			r := NewResult("fig6.1", "Net-in GB vs RF, PageRank under PowerLyra",
				"strategy", "replication-factor", "net-in-GB", "vs-trend")
			for _, p := range points {
				resid := fit.Residual(p.rf, net(p))
				r.Row(plDims(p.strategy, "PageRank(10)")).Col(p.strategy).
					Metric("replication-factor", p.rf, "ratio", 3).
					Metric("net-in-GB", net(p), "GB", 3).
					Col(trendSide(resid)).
					Value("trend-residual-GB", resid, "GB")
			}
			for _, p := range points {
				if !hybridFamily(p.strategy) {
					continue
				}
				resid := fit.Residual(p.rf, net(p))
				r.Checkf(resid < 0, p.strategy+" sits below the non-hybrid network trend for natural PageRank",
					"%s below the non-hybrid trend for natural PageRank: %s (residual %.4g GB)",
					p.strategy, Mark(resid < 0), resid)
			}
			r.Notef("non-hybrid trend: slope=%.4g R²=%.3f", fit.Slope, fit.R2)
			return r, nil
		},
	}
}

func fig62() Experiment {
	return Experiment{
		ID:    "fig6.2",
		Title: "Peak memory vs. replication factor (PowerLyra, EC2-25, UK-web)",
		Paper: "Hybrid and Hybrid-Ginger sit above the memory trend (multi-pass ingress overheads); H-Ginger higher than Hybrid",
		Run: func(cfg Config) (*Result, error) {
			points, err := lyraPoints(cfg, "PageRank(C)")
			if err != nil {
				return nil, err
			}
			fit, err := fitTrend(points, (*point).peakMemGB, hybridFamily)
			if err != nil {
				return nil, err
			}
			r := NewResult("fig6.2", "Peak memory GB vs RF under PowerLyra",
				"strategy", "replication-factor", "peak-mem-GB", "vs-trend")
			var hybridMem, gingerMem float64
			for _, p := range points {
				r.Row(plDims(p.strategy, "PageRank(C)")).Col(p.strategy).
					Metric("replication-factor", p.rf, "ratio", 3).
					Metric("peak-mem-GB", p.peakMemGB(), "GB", 3).
					Col(trendSide(fit.Residual(p.rf, p.peakMemGB())))
				switch p.strategy {
				case "Hybrid":
					hybridMem = p.peakMemGB()
				case "H-Ginger":
					gingerMem = p.peakMemGB()
				}
			}
			for _, p := range points {
				if !hybridFamily(p.strategy) {
					continue
				}
				pass := fit.Residual(p.rf, p.peakMemGB()) > 0
				r.Checkf(pass, p.strategy+" sits above the memory trend",
					"%s above the memory trend: %s", p.strategy, Mark(pass))
			}
			pass := gingerMem > hybridMem
			r.Checkf(pass, "H-Ginger peaks higher than Hybrid",
				"H-Ginger (%.3f GB) has higher peak memory than Hybrid (%.3f GB): %s", gingerMem, hybridMem, Mark(pass))
			return r, nil
		},
	}
}

func fig63() Experiment {
	return Experiment{
		ID:    "fig6.3",
		Title: "Memory utilization over time (PowerLyra, EC2-25, UK-web, PageRank)",
		Paper: "peak memory is reached during the ingress phase for every partitioning strategy; the black dot (end of ingress) comes after the peak",
		Run: func(cfg Config) (*Result, error) {
			cc := cluster.EC2x25
			r := NewResult("fig6.3", "Memory timeline (per-machine GB)",
				"strategy", "phase", "t-start-s", "t-end-s", "mem-GB")
			// The same points as fig6.2, read for their timelines.
			points, err := lyraPoints(cfg, "PageRank(C)")
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				strat, stats := p.strategy, p.stats
				t0 := 0.0
				ingressPeak := 0.0
				for _, ph := range p.ingress.Phases {
					r.Row(report.Dims{Dataset: "uk-web", Strategy: strat, Engine: enginePowerLyra,
						Cluster: clusterName(cc), Parts: cc.NumParts(), Variant: "ingress:" + ph.Name}).
						Col(strat, "ingress:"+ph.Name).
						Metric("t-start-s", t0, "s", 3).
						Metric("t-end-s", t0+ph.Seconds, "s", 3).
						Metric("mem-GB", ph.MemPerMachine/1e9, "GB", 3)
					t0 += ph.Seconds
					if ph.MemPerMachine > ingressPeak {
						ingressPeak = ph.MemPerMachine
					}
				}
				r.Row(report.Dims{Dataset: "uk-web", Strategy: strat, App: "PageRank(C)",
					Engine: enginePowerLyra, Cluster: clusterName(cc), Parts: cc.NumParts(), Variant: "compute"}).
					Col(strat, "compute").
					Metric("t-start-s", t0, "s", 3).
					Metric("t-end-s", t0+stats.ComputeSeconds, "s", 3).
					Metric("mem-GB", stats.PeakMemGB, "GB", 3)
				pass := ingressPeak/1e9 >= stats.PeakMemGB
				r.Checkf(pass, "peak memory is reached during ingress for "+strat,
					"%s: peak reached during ingress (%.3f GB ≥ compute %.3f GB) %s",
					strat, ingressPeak/1e9, stats.PeakMemGB, Mark(pass))
			}
			return r, nil
		},
	}
}

func fig64() Experiment {
	return sweepExperiment("fig6.4",
		"Ingress times for PowerLyra (all strategies × graphs × clusters)",
		"H-Ginger has significantly slower ingress than every other strategy; Hybrid is slower than the single-pass hashes",
		"PowerLyra ingress times (s)",
		sweepSpec{engine: enginePowerLyra, datasets: pgDatasets, clusters: pgClusters,
			strategies: powerLyraStrategies, metrics: []sweepMetric{sweepIngress}},
		func(r *Result, g *sweepGrid) {
			cc := cluster.EC2x25
			pass := true
			for _, ds := range pgDatasets {
				if g.at(ds, cc, "H-Ginger").ingressSeconds <= g.at(ds, cc, "Hybrid").ingressSeconds {
					pass = false
				}
			}
			r.Checkf(pass, "H-Ginger ingress slower than Hybrid on every graph",
				"H-Ginger slower than Hybrid on every graph (EC2-25): %s", Mark(pass))
		})
}

func fig65() Experiment {
	return sweepExperiment("fig6.5",
		"Replication factors for PowerLyra",
		"Oblivious best on road networks and uk-web; Grid and Hybrid both low on LiveJournal/Twitter; H-Ginger only slightly better than Hybrid; Random worst",
		"PowerLyra replication factors",
		sweepSpec{engine: enginePowerLyra, datasets: pgDatasets, clusters: pgClusters,
			strategies: powerLyraStrategies, metrics: []sweepMetric{sweepRF}},
		func(r *Result, g *sweepGrid) {
			rf := func(ds, strat string) float64 { return g.at(ds, cluster.EC2x25, strat).rf }
			obl := true
			for _, ds := range []string{"road-ca", "road-usa", "uk-web"} {
				if rf(ds, "Oblivious") >= rf(ds, "Random") || rf(ds, "Oblivious") >= rf(ds, "Grid") {
					obl = false
				}
			}
			r.Checkf(obl, "Oblivious has the lowest-family RF on road networks and uk-web",
				"Oblivious lowest-family RF on road networks and uk-web: %s", Mark(obl))
			gin := true
			for _, ds := range pgDatasets {
				if rf(ds, "H-Ginger") > rf(ds, "Hybrid")*1.05 {
					gin = false
				}
			}
			r.Checkf(gin, "H-Ginger RF at most marginally above Hybrid's everywhere",
				"H-Ginger ≤ ~Hybrid RF everywhere (only slight improvement): %s", Mark(gin))
		})
}

func fig66() Experiment {
	return Experiment{
		ID:    "fig6.6",
		Title: "PowerLyra decision tree validation (natural apps prefer Hybrid)",
		Paper: "pairing Hybrid with a natural application (PageRank) beats pairing it with a non-natural one relative to Oblivious; low-degree graphs still prefer Oblivious",
		Run: func(cfg Config) (*Result, error) {
			r := NewResult("fig6.6", "Hybrid synergy with natural applications",
				"app", "natural", "strategy", "net-in-GB", "compute-s")
			type key struct{ app, strat string }
			net := map[key]float64{}
			for _, strat := range []string{"Oblivious", "Hybrid"} {
				for _, appName := range []string{"PageRank(10)", "WCC"} {
					p, err := measure(cfg, onPowerLyra, "uk-web", strat, appName, cluster.EC2x25)
					if err != nil {
						return nil, err
					}
					nat := "no"
					if advisor.NaturalApp(appName) {
						nat = "yes"
					}
					r.Row(plDims(strat, appName)).Col(appName, nat, strat).
						Metric("net-in-GB", p.stats.AvgNetInGB, "GB", 3).
						Metric("compute-s", p.stats.ComputeSeconds, "s", 3)
					net[key{appName, strat}] = p.stats.AvgNetInGB
				}
			}
			// Hybrid's network advantage over Oblivious should be larger
			// for the natural app than the non-natural one.
			prRatio := net[key{"PageRank(10)", "Hybrid"}] / net[key{"PageRank(10)", "Oblivious"}]
			wccRatio := net[key{"WCC", "Hybrid"}] / net[key{"WCC", "Oblivious"}]
			pass := prRatio < wccRatio
			r.Checkf(pass, "Hybrid's network advantage is larger for the natural app",
				"Hybrid/Oblivious net ratio: PageRank %.3f vs WCC %.3f (natural synergy) %s", prRatio, wccRatio, Mark(pass))
			return r, nil
		},
	}
}
