package bench

// GraphX experiments: chapter 7 (Fig 7.1, Table 7.1).

import (
	"fmt"
	"sort"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// graphxStrategies are GraphX's native strategies (§7.2) in the paper's
// naming.
var graphxStrategies = []string{"1D", "2D", "CanonicalRandom", "AsymRandom"}

// graphxDatasets are the four graphs GraphX could load (§7.3: Twitter and
// uk-web ran out of memory, so enwiki replaces them).
var graphxDatasets = []string{"road-ca", "road-usa", "livejournal", "enwiki"}

// graphxApps are the chapter-7 applications, run for 10 iterations (§7.3).
var graphxApps = []string{"PageRank", "SSSP", "WCC"}

// runGraphXApp executes one application under the GraphX engine.
func runGraphXApp(appName string, a *partition.Assignment, gcfg graphx.Config, model cluster.CostModel) (graphx.Stats, error) {
	switch appName {
	case "PageRank":
		out, err := graphx.Run[float64, float64](app.PageRank{}, a, gcfg, model)
		if err != nil {
			return graphx.Stats{}, err
		}
		return out.Stats, nil
	case "SSSP":
		out, err := graphx.Run[float64, float64](app.SSSP{Source: ssspSource(a.G)}, a, gcfg, model)
		if err != nil {
			return graphx.Stats{}, err
		}
		return out.Stats, nil
	case "WCC":
		out, err := graphx.Run[uint32, uint32](app.WCC{}, a, gcfg, model)
		if err != nil {
			return graphx.Stats{}, err
		}
		return out.Stats, nil
	}
	return graphx.Stats{}, fmt.Errorf("bench: unknown GraphX app %q", appName)
}

// gxDims are the cell dimensions of a GraphX measurement.
func gxDims(cc cluster.Config, ds, strat, appName string) report.Dims {
	return report.Dims{Dataset: ds, Strategy: strat, App: appName,
		Engine: engineGraphX, Cluster: clusterName(cc), Parts: cc.NumParts()}
}

func init() {
	register(fig71())
	register(tab71())
}

func fig71() Experiment {
	return Experiment{
		ID:    "fig7.1",
		Title: "PageRank computation times on GraphX (native strategies × graphs, 10 iterations, Local-10)",
		Paper: "partitioning time is similar for all (stateless hash) strategies and much smaller than computation; Canonical Random competitive on road networks, 2D on skewed graphs",
		Run: func(cfg Config) (*Result, error) {
			model := cluster.DefaultModel()
			cc := cluster.GraphXLocal10
			r := NewResult("fig7.1", "GraphX PageRank compute times",
				"graph", "strategy", "partition-s", "compute-s")
			partTimes := map[string][]float64{}
			for _, ds := range graphxDatasets {
				for _, strat := range graphxStrategies {
					a, err := assignment(cfg, ds, strat, cc.NumParts())
					if err != nil {
						return nil, err
					}
					st, err := runGraphXApp("PageRank", a, cfg.graphxConfig(cc, 10), model)
					if err != nil {
						return nil, err
					}
					r.Row(gxDims(cc, ds, strat, "PageRank")).Col(ds, strat).
						Metric("partition-s", st.PartitionSeconds, "s", 3).
						Metric("compute-s", st.ComputeSeconds, "s", 3)
					partTimes[ds] = append(partTimes[ds], st.PartitionSeconds)
					// The table only calls this out on failure, but the
					// check is recorded either way so a future regression
					// has a passing baseline to diff against.
					claim := "partitioning time much smaller than compute for " + ds + "/" + strat
					if st.PartitionSeconds >= st.ComputeSeconds {
						r.Checkf(false, claim,
							"%s/%s: partitioning (%.3fs) not ≪ compute (%.3fs) ✗", ds, strat, st.PartitionSeconds, st.ComputeSeconds)
					} else {
						r.Check(true, claim, fmt.Sprintf("%s/%s: partitioning (%.3fs) ≪ compute (%.3fs) ✓",
							ds, strat, st.PartitionSeconds, st.ComputeSeconds))
					}
				}
			}
			// All native strategies partition at similar speed (§7.4).
			pass := true
			for _, ds := range sortedKeys(partTimes) {
				times := partTimes[ds]
				lo, hi := times[0], times[0]
				for _, v := range times {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if hi > lo*1.5 {
					pass = false
					r.Notef("%s: partition times spread %.3f–%.3fs exceeds 1.5×", ds, lo, hi)
				}
			}
			r.Checkf(pass, "all native strategies partition at similar speed",
				"all native strategies partition at similar speed: %s", Mark(pass))
			return r, nil
		},
	}
}

// rankingRow formats Table 7.1's ascending-compute-time ranking with
// parentheses around near-ties (within 5%).
func rankingRow(times map[string]float64) string {
	type st struct {
		name string
		sec  float64
	}
	var list []st
	for n, s := range times {
		list = append(list, st{n, s})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].sec != list[j].sec {
			return list[i].sec < list[j].sec
		}
		return list[i].name < list[j].name // tie-break: map order must not leak
	})
	short := map[string]string{"1D": "1D", "2D": "2D", "CanonicalRandom": "CR", "AsymRandom": "R"}
	out := ""
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && list[j].sec <= list[i].sec*1.05 {
			j++
		}
		group := ""
		for k := i; k < j; k++ {
			if group != "" {
				group += ","
			}
			group += short[list[k].name]
		}
		if j-i > 1 {
			group = "(" + group + ")"
		}
		if out != "" {
			out += ","
		}
		out += group
		i = j
	}
	return out
}

func tab71() Experiment {
	return Experiment{
		ID:    "tab7.1",
		Title: "Computation-time rankings for GraphX (Table 7.1)",
		Paper: "Canonical Random fastest or near-fastest on road networks; 2D fastest or near-fastest on skewed graphs; Random (asymmetric) generally last",
		Run: func(cfg Config) (*Result, error) {
			model := cluster.DefaultModel()
			cc := cluster.GraphXLocal10
			r := NewResult("tab7.1", "GraphX strategy rankings (ascending compute time)",
				"app", "graph", "ranking", "best")
			roadOK, skewOK := true, true
			for _, appName := range graphxApps {
				for _, ds := range graphxDatasets {
					times := map[string]float64{}
					for _, strat := range graphxStrategies {
						a, err := assignment(cfg, ds, strat, cc.NumParts())
						if err != nil {
							return nil, err
						}
						st, err := runGraphXApp(appName, a, cfg.graphxConfig(cc, 10), model)
						if err != nil {
							return nil, err
						}
						times[strat] = st.ComputeSeconds
						// The rendered row is the ranking; the underlying
						// measurements go out as cells.
						r.Cell(gxDims(cc, ds, strat, appName), "compute-s", st.ComputeSeconds, "s")
					}
					// Sorted iteration makes the argmin's tie-break (first
					// name in ascending order) deterministic.
					best, bestT := "", -1.0
					for _, n := range sortedKeys(times) {
						if s := times[n]; bestT < 0 || s < bestT {
							best, bestT = n, s
						}
					}
					r.Row(report.Dims{Dataset: ds, App: appName, Engine: engineGraphX,
						Cluster: clusterName(cc), Parts: cc.NumParts()}).
						Col(appName, ds, rankingRow(times), best)
					isRoad := ds == "road-ca" || ds == "road-usa"
					if isRoad {
						// CR must be within 25% of the best.
						if times["CanonicalRandom"] > bestT*1.25 {
							roadOK = false
						}
					} else {
						if times["2D"] > bestT*1.25 {
							skewOK = false
						}
					}
				}
			}
			r.Checkf(roadOK, "Canonical Random fastest or near-fastest on road networks",
				"Canonical Random fastest/near-fastest on road networks: %s", Mark(roadOK))
			r.Checkf(skewOK, "2D fastest or near-fastest on heavy-tailed graphs",
				"2D fastest/near-fastest on heavy-tailed graphs: %s", Mark(skewOK))
			return r, nil
		},
	}
}
