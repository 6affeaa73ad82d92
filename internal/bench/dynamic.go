package bench

// Dynamic-graph experiments: the dyn.* family measures what the paper never
// did — partition quality and ingest cost under edge churn. dyn.drift
// compares incremental maintenance against one-shot repartitioning of the
// surviving edges across deletion rates; dyn.rebalance exercises the
// migration pass and hot-vertex replication on a skew-loaded strategy;
// dyn.cost prices incremental windows against per-window repartitioning on
// the simulated cluster. Every cell is deterministic (quality metrics and
// modeled seconds); how fast ApplyBatch runs in wall-clock is benchmark/'s
// partition.apply_edges_per_s and service.churn_edges_per_s.

import (
	"fmt"

	"graphpart/internal/cluster"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// churnRates are the deletion fractions every dyn.* sweep covers.
var churnRates = []float64{0.10, 0.25, 0.40}

const dynWindows = 6

// dynStrategy builds a strategy for the dynamic experiments. Greedy
// strategies pin Loaders:1 so their one-shot baseline streams the same
// single persistent loader state the incremental path maintains.
func dynStrategy(name string) (partition.Strategy, error) {
	return partition.New(name, partition.Options{Loaders: 1})
}

// runTrace drives a fresh PartitionState through a churn trace over g,
// invoking perWindow (if non-nil) after each absorbed window, and returns
// the surviving edges.
func runTrace(cfg Config, st *partition.PartitionState, g *graph.Graph, delFrac float64,
	perWindow func(w gen.ChurnWindow, stats partition.BatchStats) error) ([]graph.Edge, error) {
	return gen.ChurnTrace(g.Edges, gen.ChurnConfig{Windows: dynWindows, DelFrac: delFrac, Seed: cfg.Seed},
		func(w gen.ChurnWindow) error {
			stats, err := st.ApplyBatch(w.Adds, w.Dels)
			if err != nil {
				return err
			}
			if perWindow != nil {
				return perWindow(w, stats)
			}
			return nil
		})
}

func dynDrift() Experiment {
	return Experiment{
		ID:    "dyn.drift",
		Title: "Incremental quality drift vs one-shot repartitioning by churn rate",
		Paper: "no counterpart — the paper partitions frozen edge lists only; this measures how far incrementally maintained state drifts from a from-scratch partitioning of the same surviving edges as deletion pressure grows",
		Run: func(cfg Config) (*Result, error) {
			g, err := loadGraph(cfg, "uk-web")
			if err != nil {
				return nil, err
			}
			const parts = 16
			r := NewResult("dyn.drift", "Incremental vs one-shot quality (uk-web, 16 parts, 6 windows)",
				"strategy", "del-frac", "rf-incr", "rf-oneshot", "drift", "balance-incr")
			statelessExact := true
			hdrfWorst := 1.0
			for _, name := range []string{"2D", "Grid", "HDRF"} {
				s, err := dynStrategy(name)
				if err != nil {
					return nil, err
				}
				for _, rate := range churnRates {
					st, err := partition.NewPartitionState(s, parts, cfg.Seed, cfg.Workers)
					if err != nil {
						return nil, err
					}
					d := report.Dims{Dataset: "uk-web", Strategy: name, Parts: parts,
						Variant: fmt.Sprintf("del=%.2f", rate)}
					wi := 0
					survivors, err := runTrace(cfg, st, g, rate,
						func(w gen.ChurnWindow, stats partition.BatchStats) error {
							// Per-window drift trajectory (deterministic).
							wd := d
							wd.Variant = fmt.Sprintf("del=%.2f/w%d", rate, wi)
							r.Cell(wd, "rf-window", st.ReplicationFactor(), "ratio")
							wi++
							return nil
						})
					if err != nil {
						return nil, err
					}
					lg := graph.FromEdges("uk-web-live", survivors)
					a, err := partition.ParallelPartition(lg, s, parts, cfg.Seed, cfg.Workers)
					if err != nil {
						return nil, err
					}
					drift := st.ReplicationFactor() / a.ReplicationFactor()
					if _, ok := s.(partition.StatelessStrategy); ok {
						if drift != 1 || st.EdgeBalance() != a.EdgeBalance() {
							statelessExact = false
						}
					} else if drift > hdrfWorst {
						hdrfWorst = drift
					}
					r.Row(d).
						Col(name).
						Colf("%.2f", rate).
						Metric("rf-incremental", st.ReplicationFactor(), "ratio", 3).
						MetricAt(d, "rf-oneshot", a.ReplicationFactor(), "ratio", 3).
						Metric("rf-drift", drift, "ratio", 4).
						Metric("edge-balance", st.EdgeBalance(), "max/mean", 3)
				}
			}
			r.Checkf(statelessExact, "stateless incremental state is exactly the one-shot partitioning at every churn rate",
				"stateless strategies drift 1.0000 exactly (2D, Grid at all rates): %s", Mark(statelessExact))
			hdrfOK := hdrfWorst < 1.25
			r.Checkf(hdrfOK, "HDRF's persistent loader drifts <25% above from-scratch RF under churn",
				"HDRF worst RF drift %.4f (want <1.25): %s", hdrfWorst, Mark(hdrfOK))
			r.Notef("drift = incremental RF / one-shot RF over the same surviving edges; per-window trajectories are recorded as report cells")
			return r, nil
		},
	}
}

func dynRebalance() Experiment {
	return Experiment{
		ID:    "dyn.rebalance",
		Title: "Rebalancer under skewed churn",
		Paper: "no counterpart — 1D hashes by source, so a power-law out-degree stream steadily overloads the hub partitions; this measures migration repairing balance drift",
		Run: func(cfg Config) (*Result, error) {
			g, err := loadGraph(cfg, "uk-web")
			if err != nil {
				return nil, err
			}
			const parts = 16
			const maxBalance = 1.15
			variants := []struct {
				name      string
				rebalance bool
			}{
				{"baseline", false},
				{"rebalance", true},
			}
			r := NewResult("dyn.rebalance",
				fmt.Sprintf("1D under churn (uk-web, %d parts, threshold %.2f)", parts, maxBalance),
				"variant", "balance", "rf", "moved")
			s, err := dynStrategy("1D")
			if err != nil {
				return nil, err
			}
			balances := map[string]float64{}
			moves := map[string]int{}
			for _, v := range variants {
				st, err := partition.NewPartitionState(s, parts, cfg.Seed, cfg.Workers)
				if err != nil {
					return nil, err
				}
				moved := 0
				_, err = runTrace(cfg, st, g, 0.25,
					func(w gen.ChurnWindow, stats partition.BatchStats) error {
						if v.rebalance && st.NeedsRebalance(maxBalance) {
							moved += st.Rebalance(maxBalance)
						}
						return nil
					})
				if err != nil {
					return nil, err
				}
				balances[v.name] = st.EdgeBalance()
				moves[v.name] = moved
				r.Row(report.Dims{Dataset: "uk-web", Strategy: "1D", Parts: parts, Variant: v.name}).
					Col(v.name).
					Metric("edge-balance", st.EdgeBalance(), "max/mean", 3).
					Metric("replication-factor", st.ReplicationFactor(), "ratio", 3).
					Metric("edges-moved", float64(moved), "edges", 0)
			}
			drifted := balances["baseline"] > maxBalance
			r.Checkf(drifted, "1D balance drifts past the threshold without intervention",
				"baseline 1D balance %.3f exceeds the %.2f threshold: %s", balances["baseline"], maxBalance, Mark(drifted))
			repaired := balances["rebalance"] <= maxBalance && moves["rebalance"] > 0
			r.Checkf(repaired, "the rebalancer holds balance at or under the threshold",
				"rebalanced 1D ends at %.3f (≤%.2f) after migrating %d edges: %s",
				balances["rebalance"], maxBalance, moves["rebalance"], Mark(repaired))
			return r, nil
		},
	}
}

func dynCost() Experiment {
	return Experiment{
		ID:    "dyn.cost",
		Title: "Incremental window cost vs per-window repartitioning (simulated cluster)",
		Paper: "no counterpart — prices the alternative the paper's systems force (repartition everything per change) against incremental maintenance on the same cost model that reproduces Fig 6.4's ingress times",
		Run: func(cfg Config) (*Result, error) {
			g, err := loadGraph(cfg, "twitter")
			if err != nil {
				return nil, err
			}
			const parts = 16
			cc := cluster.Config{Machines: 8, PartsPerMachine: 2}
			model := cluster.DefaultModel()
			r := NewResult("dyn.cost", "Incremental vs repartition cost per churn trace (twitter, 16 parts, 8 machines)",
				"strategy", "del-frac", "incr-s", "repart-s", "speedup")
			allCheaper := true
			for _, name := range []string{"2D", "HDRF"} {
				s, err := dynStrategy(name)
				if err != nil {
					return nil, err
				}
				shape := partition.ShapeOf(s, parts)
				for _, rate := range churnRates {
					st, err := partition.NewPartitionState(s, parts, cfg.Seed, cfg.Workers)
					if err != nil {
						return nil, err
					}
					var incrSec, repartSec float64
					_, err = runTrace(cfg, st, g, rate,
						func(w gen.ChurnWindow, stats partition.BatchStats) error {
							incrSec += cluster.ChurnWindow(shape, parts,
								int64(stats.Added), int64(stats.Deleted), 0, cc, model).Seconds
							// The alternative: repartition the live set from
							// scratch at every window.
							lg := graph.FromEdges("twitter-live", st.LiveEdges())
							a, err := partition.ParallelPartition(lg, s, parts, cfg.Seed, cfg.Workers)
							if err != nil {
								return err
							}
							repartSec += cluster.Ingress(a, s, cc, model).Seconds
							return nil
						})
					if err != nil {
						return nil, err
					}
					if incrSec >= repartSec {
						allCheaper = false
					}
					r.Row(report.Dims{Dataset: "twitter", Strategy: name, Parts: parts,
						Variant: fmt.Sprintf("del=%.2f", rate)}).
						Col(name).
						Colf("%.2f", rate).
						Metric("incremental-seconds", incrSec, "s", 4).
						Metric("repartition-seconds", repartSec, "s", 4).
						Metric("cost-ratio", repartSec/incrSec, "x", 1)
				}
			}
			r.Checkf(allCheaper, "incremental windows are cheaper than per-window repartitioning at every churn rate",
				"modeled incremental cost beats repartitioning for 2D and HDRF at all rates: %s", Mark(allCheaper))
			r.Notef("seconds are modeled on the simulated cluster (deterministic): incremental windows pay assignment+shuffle+patch on the delta; repartitioning pays full load+assign+shuffle+finalize per window")
			return r, nil
		},
	}
}
