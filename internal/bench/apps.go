package bench

import (
	"context"
	"fmt"
	"math"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
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
// The table holds one runner per system family; a nil runner is a system the
// paper does not run the application on.
type appSpec struct {
	name string
	// run executes it on PowerGraph or PowerLyra.
	run func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error)
	// gx executes it on GraphX, whose config carries the iteration cap.
	gx func(a *partition.Assignment, gcfg graphx.Config, model cluster.CostModel) (graphx.Stats, error)
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

// appTable is the one application table: the six configurations of
// Figs 5.3–5.5 on PowerGraph and PowerLyra — PageRank for 10 iterations,
// convergent PageRank, WCC, undirected SSSP, K-core decomposition and Simple
// Coloring — and the three of chapters 7 and 9 on GraphX, where PageRank
// runs for the point's iteration cap and SSSP and WCC are the same entries.
var appTable = []appSpec{
	{
		name: "PageRank(10)",
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.FixedIterations = 10
			return statsOf(engine.Run[float64, float64](mode, app.PageRank{}, a, cc, model, opts))
		},
	},
	{
		name: "PageRank(C)",
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.MaxSupersteps = maxSupersteps
			return statsOf(engine.Run[float64, float64](mode, app.PageRank{Tolerance: prConvTolerance}, a, cc, model, opts))
		},
	},
	{
		name: "WCC",
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.MaxSupersteps = maxSupersteps
			return statsOf(engine.Run[uint32, uint32](mode, app.WCC{}, a, cc, model, opts))
		},
		gx: func(a *partition.Assignment, gcfg graphx.Config, model cluster.CostModel) (graphx.Stats, error) {
			return gxStatsOf(graphx.Run[uint32, uint32](app.WCC{}, a, gcfg, model))
		},
	},
	{
		name: "SSSP", // undirected variant, as in §6.4.1
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.MaxSupersteps = maxSupersteps
			return statsOf(engine.Run[float64, float64](mode, app.SSSP{Source: ssspSource(a.G)}, a, cc, model, opts))
		},
		gx: func(a *partition.Assignment, gcfg graphx.Config, model cluster.CostModel) (graphx.Stats, error) {
			return gxStatsOf(graphx.Run[float64, float64](app.SSSP{Source: ssspSource(a.G)}, a, gcfg, model))
		},
	},
	{
		name: "K-Core",
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.MaxSupersteps = maxSupersteps
			_, stats, err := app.KCoreDecomposition(mode, kcoreMin, kcoreMax, a, cc, model, opts)
			return stats, err
		},
	},
	{
		name: "Coloring",
		run: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, model cluster.CostModel, opts engine.Options) (engine.Stats, error) {
			opts.MaxSupersteps = maxSupersteps
			return statsOf(engine.Run[int32, app.ColorSet](mode, app.Coloring{}, a, cc, model, opts))
		},
	},
	{
		name: "PageRank",
		gx: func(a *partition.Assignment, gcfg graphx.Config, model cluster.CostModel) (graphx.Stats, error) {
			return gxStatsOf(graphx.Run[float64, float64](app.PageRank{}, a, gcfg, model))
		},
	},
}

// statsOf and gxStatsOf unwrap the Stats of one run of an app table entry.
func statsOf[V any](out *engine.Outcome[V], err error) (engine.Stats, error) {
	if err != nil {
		return engine.Stats{}, err
	}
	return out.Stats, nil
}

func gxStatsOf[V any](out *graphx.Outcome[V], err error) (graphx.Stats, error) {
	if err != nil {
		return graphx.Stats{}, err
	}
	return out.Stats, nil
}

// paperApps returns the six configurations of Figs 5.3–5.5: the app table's
// entries that run on PowerGraph and PowerLyra, in table order.
func paperApps() []appSpec {
	var out []appSpec
	for _, spec := range appTable {
		if spec.run != nil {
			out = append(out, spec)
		}
	}
	return out
}

// appByName looks an app table entry up by its name.
func appByName(name string) (appSpec, error) {
	for _, spec := range appTable {
		if spec.name == name {
			return spec, nil
		}
	}
	return appSpec{}, fmt.Errorf("bench: unknown app %q", name)
}

// system is the engine half of a point: the system that runs the
// application and, on GraphX, the Pregel loop's iteration cap (chapters 7
// and 9 run the same job at 2, 10 and 25 iterations).
type system struct {
	engine string // enginePowerGraph, enginePowerLyra or engineGraphX
	iters  int    // GraphX's iteration cap; 0 on the vertex-cut engines
}

var (
	onPowerGraph = system{engine: enginePowerGraph}
	onPowerLyra  = system{engine: enginePowerLyra}
)

// onGraphX is GraphX capped at iters iterations.
func onGraphX(iters int) system { return system{engine: engineGraphX, iters: iters} }

// point is one measured cell of the paper's matrix: a strategy's
// replication factor on a dataset and cluster, and one application run over
// that assignment — on PowerGraph or PowerLyra the modeled ingress and the
// engine statistics, on GraphX its statistics, partitioning phase included.
type point struct {
	strategy string
	rf       float64
	ingress  cluster.IngressStats
	stats    engine.Stats
	gx       *graphx.Stats // nil on the vertex-cut engines
}

// totalSeconds is the job time the decision trees rank by: ingress plus
// compute, or on GraphX partitioning plus compute.
func (p *point) totalSeconds() float64 {
	if p.gx != nil {
		return p.gx.PartitionSeconds + p.gx.ComputeSeconds
	}
	return p.ingress.Seconds + p.stats.ComputeSeconds
}

// peakMemGB is the per-machine peak over the whole job — ingress buffers
// or compute state, whichever is higher (Figs 5.5/6.2).
func (p *point) peakMemGB() float64 {
	return math.Max(p.stats.PeakMemGB, p.ingress.PeakMemPerMachine/1e9)
}

// pointKey is everything a point depends on; like asgKey it leaves
// Config.Workers out, because the engines are byte-identical at every
// worker count.
type pointKey struct {
	asg asgKey
	cc  cluster.Config
	sys system
	app string
}

var points par.OnceMap[pointKey, *point]

// measure runs one application over one strategy's assignment of dataset
// on cc under sys. It is the only path from an experiment to an engine run
// (fig9.4's executor-memory sweep aside), and points are cached per key, so
// figures that read the same point (tab5.1, fig5.9 and adv.regret re-read
// the fig5.3–5.5 sweep; fig6.3 re-reads fig6.2's; tab7.1 re-reads fig7.1's;
// fig9.3 and adv.regret re-read figs 9.1/9.2's) simulate it once per
// process. The returned point is shared: callers must not modify it.
func measure(cfg Config, sys system, dataset, strategy, appName string, cc cluster.Config) (*point, error) {
	key := pointKey{
		asg: cfg.asgKey(dataset, strategy, cc.NumParts()),
		cc:  cc,
		sys: sys,
		app: appName,
	}
	return points.Get(context.TODO(), key, func() (*point, error) {
		spec, err := appByName(appName)
		if err != nil {
			return nil, err
		}
		if sys.engine == engineGraphX {
			if spec.gx == nil {
				return nil, fmt.Errorf("bench: app %q does not run on %s", appName, sys.engine)
			}
			a, err := assignment(cfg, dataset, strategy, cc.NumParts())
			if err != nil {
				return nil, err
			}
			st, err := spec.gx(a, cfg.graphxConfig(cc, sys.iters), cluster.DefaultModel())
			if err != nil {
				return nil, err
			}
			return &point{strategy: strategy, rf: a.ReplicationFactor(), gx: &st}, nil
		}
		if spec.run == nil {
			return nil, fmt.Errorf("bench: app %q does not run on %s", appName, sys.engine)
		}
		a, ing, err := ingest(cfg, dataset, strategy, cc)
		if err != nil {
			return nil, err
		}
		mode := engine.ModePowerGraph
		if sys.engine == enginePowerLyra {
			mode = engine.ModePowerLyra
		}
		stats, err := spec.run(mode, a, cc, cluster.DefaultModel(), cfg.engineOpts())
		if err != nil {
			return nil, err
		}
		return &point{strategy: strategy, rf: a.ReplicationFactor(), ingress: ing, stats: stats}, nil
	})
}

// measureEach measures one application across a list of strategies, in
// list order.
func measureEach(cfg Config, sys system, dataset string, strategies []string, appName string, cc cluster.Config) ([]*point, error) {
	pts := make([]*point, 0, len(strategies))
	for _, strat := range strategies {
		p, err := measure(cfg, sys, dataset, strat, appName, cc)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}
