package bench

import (
	"context"
	"fmt"
	"math"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/par"
	"graphpart/internal/partition"
)

// K-core bounds for the scaled datasets. The paper uses kmin=10, kmax=20 on
// graphs three orders of magnitude larger (§5.3); 3..16 puts the peeling
// frontier in the same relative position on the stand-ins.
const (
	kcoreMin = 3
	kcoreMax = 16
)

// maxSupersteps bounds convergent runs defensively.
const maxSupersteps = 4000

// prConvTolerance is the convergence tolerance of the "PageRank(C)"
// benchmark configuration; it sets convergence after a few tens of
// supersteps, giving PageRank(C) the paper's "short job" character
// relative to K-core (Table 5.1).
const prConvTolerance = 1e-2

// appSpec is one benchmark application in the configuration the paper runs.
type appSpec struct {
	name    string
	natural bool
	run     func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error)
}

// ssspSource picks a deterministic well-connected source: the max-degree
// vertex.
func ssspSource(g *graph.Graph) graph.VertexID {
	best := graph.VertexID(0)
	bestDeg := -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(graph.VertexID(v)); d > bestDeg {
			best, bestDeg = graph.VertexID(v), d
		}
	}
	return best
}

// paperApps returns the six application configurations of Figs 5.3–5.5:
// PageRank for 10 iterations, convergent PageRank, WCC, undirected SSSP,
// K-core decomposition, and Simple Coloring.
func paperApps() []appSpec {
	return []appSpec{
		{
			name: "PageRank(10)", natural: true,
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.FixedIterations = 10
				out, err := engine.Run[float64, float64](mode, app.PageRank{}, a, cc, model, opts)
				if err != nil {
					return engine.Stats{}, err
				}
				out.Stats.App = "PageRank(10)"
				return out.Stats, nil
			},
		},
		{
			name: "PageRank(C)", natural: true,
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.MaxSupersteps = maxSupersteps
				out, err := engine.Run[float64, float64](mode, app.PageRank{Tolerance: prConvTolerance}, a, cc, model, opts)
				if err != nil {
					return engine.Stats{}, err
				}
				out.Stats.App = "PageRank(C)"
				return out.Stats, nil
			},
		},
		{
			name: "WCC", natural: false,
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.MaxSupersteps = maxSupersteps
				out, err := engine.Run[uint32, uint32](mode, app.WCC{}, a, cc, model, opts)
				if err != nil {
					return engine.Stats{}, err
				}
				return out.Stats, nil
			},
		},
		{
			name: "SSSP", natural: false, // undirected variant, as in §6.4.1
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.MaxSupersteps = maxSupersteps
				out, err := engine.Run[float64, float64](mode, app.SSSP{Source: ssspSource(a.G)}, a, cc, model, opts)
				if err != nil {
					return engine.Stats{}, err
				}
				return out.Stats, nil
			},
		},
		{
			name: "K-Core", natural: false,
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.MaxSupersteps = maxSupersteps
				_, stats, err := app.KCoreDecomposition(mode, kcoreMin, kcoreMax, a, cc, model, opts)
				return stats, err
			},
		},
		{
			name: "Coloring", natural: false,
			run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
				opts.MaxSupersteps = maxSupersteps
				out, err := engine.Run[int32, app.ColorSet](mode, app.Coloring{}, a, cc, model, opts)
				if err != nil {
					return engine.Stats{}, err
				}
				return out.Stats, nil
			},
		},
	}
}

// appByName looks a paperApps configuration up by its table name.
func appByName(name string) (appSpec, error) {
	for _, spec := range paperApps() {
		if spec.name == name {
			return spec, nil
		}
	}
	return appSpec{}, fmt.Errorf("bench: unknown app %q", name)
}

// point is one measured cell of the paper's matrix: a strategy's
// replication factor and modeled ingress on a dataset and cluster, and the
// engine statistics of one application run over that assignment.
type point struct {
	strategy string
	rf       float64
	ingress  cluster.IngressStats
	stats    engine.Stats
}

// totalSeconds is the job time the decision trees rank by: ingress plus
// compute.
func (p *point) totalSeconds() float64 { return p.ingress.Seconds + p.stats.ComputeSeconds }

// peakMemGB is the per-machine peak over the whole job — ingress buffers
// or compute state, whichever is higher (Figs 5.5/6.2).
func (p *point) peakMemGB() float64 {
	return math.Max(p.stats.PeakMemGB, p.ingress.PeakMemPerMachine/1e9)
}

// pointKey is everything a point depends on; like asgKey it leaves
// Config.Workers out, because the engines are byte-identical at every
// worker count.
type pointKey struct {
	asg   asgKey
	cc    cluster.Config
	model cluster.CostModel
	mode  engine.Mode
	app   string
}

var points par.OnceMap[pointKey, *point]

// measure runs one application over one strategy's assignment of dataset
// on cc under the given engine mode. Points are cached per key, so figures
// that read the same point (tab5.1, fig5.9 and adv.regret re-read the
// fig5.3–5.5 sweep; fig6.3 re-reads fig6.2's) simulate it once per
// process. The returned point is shared: callers must not modify it.
func measure(cfg Config, mode engine.Mode, dataset, strategy, appName string, cc cluster.Config) (*point, error) {
	key := pointKey{
		asg:   cfg.asgKey(dataset, strategy, cc.NumParts()),
		cc:    cc,
		model: cfg.model(),
		mode:  mode,
		app:   appName,
	}
	return points.Get(context.TODO(), key, func() (*point, error) {
		spec, err := appByName(appName)
		if err != nil {
			return nil, err
		}
		a, ing, err := ingest(cfg, dataset, strategy, cc)
		if err != nil {
			return nil, err
		}
		stats, err := spec.run(mode, a, cc, key.model, cfg.engineOpts())
		if err != nil {
			return nil, err
		}
		return &point{strategy: strategy, rf: a.ReplicationFactor(), ingress: ing, stats: stats}, nil
	})
}

// measureEach measures one application across a list of strategies, in
// list order.
func measureEach(cfg Config, mode engine.Mode, dataset string, strategies []string, appName string, cc cluster.Config) ([]*point, error) {
	pts := make([]*point, 0, len(strategies))
	for _, strat := range strategies {
		p, err := measure(cfg, mode, dataset, strat, appName, cc)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}
