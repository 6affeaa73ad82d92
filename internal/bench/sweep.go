package bench

// The all-strategies sweep: the (dataset × cluster × strategy) tables of
// figs 5.6/5.7, 6.4/6.5 and 8.1/8.2 and adv.regret's training sweep are one
// spec each, run by one runner; what differs between them is the spec and
// the checks read off the measured grid.

import (
	"fmt"
	"strings"

	"graphpart/internal/cluster"
	"graphpart/internal/metrics"
	"graphpart/internal/plot"
	"graphpart/internal/report"
)

// sweepMetric is one column of a sweep: the ingress-side quantities every
// strategy has without running an application.
type sweepMetric struct {
	name, unit string
	pick       func(sweepPoint) float64
}

var (
	sweepRF      = sweepMetric{"replication-factor", "ratio", func(p sweepPoint) float64 { return p.rf }}
	sweepIngress = sweepMetric{"ingress-seconds", "s", func(p sweepPoint) float64 { return p.ingressSeconds }}
)

// sweepSpec declares one all-strategies table.
type sweepSpec struct {
	engine     string // Engine dimension label of the emitted cells
	datasets   []string
	clusters   []cluster.Config
	strategies []string
	// extra strategies ride along as a second full pass of rows after the
	// paper's own; checks stay restricted to the paper's strategies.
	extra   []string
	metrics []sweepMetric
}

// sweepKey addresses one measured point of a sweep.
type sweepKey struct {
	dataset  string
	cluster  cluster.Config
	strategy string
}

type sweepPoint struct{ rf, ingressSeconds float64 }

// sweepGrid is what a sweep measured. Checks read it through at, which
// turns a read of a point the sweep never measured into an experiment
// error: a plain map would hand back zero and let a comparison such as
// "AsymRandom ≥ 0.98·Random" pass on two absent keys.
type sweepGrid struct {
	points map[sweepKey]sweepPoint
	err    error // the first unmeasured read
}

func (g *sweepGrid) at(dataset string, cc cluster.Config, strategy string) sweepPoint {
	p, ok := g.points[sweepKey{dataset, cc, strategy}]
	if !ok && g.err == nil {
		g.err = fmt.Errorf("bench: check reads (%s, %s, %s), which the sweep did not measure",
			dataset, clusterName(cc), strategy)
	}
	return p
}

// sweepDims are the cell dimensions of one sweep row.
func sweepDims(engine, ds, strat string, cc cluster.Config) report.Dims {
	return report.Dims{Dataset: ds, Cluster: clusterName(cc), Strategy: strat,
		Engine: engine, Parts: cc.NumParts()}
}

// run measures every point of the spec, emitting one row per point onto r
// in dataset → cluster → strategy order, and returns the measured grid.
func (s sweepSpec) run(cfg Config, r *Result) (*sweepGrid, error) {
	g := &sweepGrid{points: map[sweepKey]sweepPoint{}}
	for _, strategies := range [][]string{s.strategies, s.extra} {
		for _, ds := range s.datasets {
			for _, cc := range s.clusters {
				for _, strat := range strategies {
					a, ing, err := ingest(cfg, ds, strat, cc)
					if err != nil {
						return nil, err
					}
					p := sweepPoint{a.ReplicationFactor(), ing.Seconds}
					g.points[sweepKey{ds, cc, strat}] = p
					row := r.Row(sweepDims(s.engine, ds, strat, cc)).Col(ds, clusterName(cc), strat)
					for _, m := range s.metrics {
						row.Metric(m.name, m.pick(p), m.unit, 3)
					}
				}
			}
		}
	}
	return g, nil
}

// sweepExperiment is the spec → runner → checks shape of every
// all-strategies table: table is the rendered result's title, checks
// appends the paper's verdicts read off the grid.
func sweepExperiment(id, title, paper, table string, spec sweepSpec, checks func(r *Result, g *sweepGrid)) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paper,
		Run: func(cfg Config) (*Result, error) {
			columns := []string{"graph", "cluster", "strategy"}
			for _, m := range spec.metrics {
				columns = append(columns, m.name)
			}
			r := NewResult(id, table, columns...)
			g, err := spec.run(cfg, r)
			if err != nil {
				return nil, err
			}
			checks(r, g)
			if g.err != nil {
				return nil, g.err
			}
			return r, nil
		},
	}
}

// The RF-correlation figures (5.3–5.5, 6.1, 6.2, 8.3) share three pieces:
// the fitted RF→metric line, the "vs-trend" column, and the scatter panel.

// fitTrend fits the RF→metric line through points, leaving out the
// strategies skip names (nil keeps every point).
func fitTrend(points []*point, pick func(*point) float64, skip func(strategy string) bool) (metrics.LinFit, error) {
	var xs, ys []float64
	for _, p := range points {
		if skip != nil && skip(p.strategy) {
			continue
		}
		xs = append(xs, p.rf)
		ys = append(ys, pick(p))
	}
	return metrics.Fit(xs, ys)
}

// trendSide is the "vs-trend" column: which side of the fitted line a
// residual falls on.
func trendSide(residual float64) string {
	if residual > 0 {
		return "above line"
	}
	return "below line"
}

// trendScatter draws the figure panel: points over replication factor,
// labelled by strategy, with the fitted line through them. A panel that
// cannot be drawn is left out rather than failing the run.
func trendScatter(title, ylabel string, points []*point, pick func(*point) float64, fit metrics.LinFit) string {
	sc := plot.Scatter{Title: title, XLabel: "replication factor", YLabel: ylabel,
		Trend: &[2]float64{fit.Slope, fit.Intercept}}
	for _, p := range points {
		sc.Points = append(sc.Points, plot.Point{X: p.rf, Y: pick(p), Label: p.strategy})
	}
	var fig strings.Builder
	if err := sc.Render(&fig); err != nil {
		return ""
	}
	return fig.String()
}
