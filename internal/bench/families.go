package bench

// Added-family experiment: fam.compare places the three strategy families
// added beyond the paper's 13 — HEP, JaBeJaSwap, Multilevel — against the
// paper's own quality anchors: pure-streaming HDRF (one loader, one pass)
// and the multi-pass Hybrid. Like the dyn.* family, its cells carry no
// Engine dimension: they benchmark the partitioners themselves, not a
// modeled system, and therefore stay invisible to the advisor's
// engine-keyed observation mining.

import (
	"fmt"

	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// familyStrategies are the three families added beyond the paper's 13;
// fig5.6/fig5.7 and fig8.1/fig8.2 append rows for them after the paper's
// own sweeps.
var familyStrategies = []string{"HEP", "JaBeJaSwap", "Multilevel"}

// famDatasets covers one dataset per ingress regime chapter 5 measures: a
// heavy-tailed social graph, the power-law web graph, and a road network.
var famDatasets = []string{"livejournal", "uk-web", "road-ca"}

// famBudgets is the HEP memory-budget dial swept on the power-law graph.
var famBudgets = []float64{0.1, 0.5, 0.9}

func famCompare() Experiment {
	return Experiment{
		ID:    "fam.compare",
		Title: "Added partitioner families vs the paper's baselines (HEP, JaBeJaSwap, Multilevel)",
		Paper: "no counterpart — the paper stops at 13 strategies; this measures the added families against its streaming (HDRF) and multi-pass (Hybrid) quality anchors, with HEP's memory budget dialing between the pure-streaming and in-memory regimes and JaBeJaSwap's swap telemetry quantifying refinement over its base",
		Run: func(cfg Config) (*Result, error) {
			const parts = 16
			r := NewResult("fam.compare", "Added families vs baselines (16 parts, one-shot ingress)",
				"graph", "strategy", "replication-factor", "edge-balance")
			specs := []struct {
				name string
				opt  partition.Options
			}{
				{"HDRF", partition.Options{Loaders: 1}}, // pure streaming: one loader, one pass
				{"Hybrid", partition.Options{}},
				{"HEP", partition.Options{}}, // DefaultMemBudget core
				{"JaBeJaSwap", partition.Options{}},
				{"Multilevel", partition.Options{}},
				{"Random", partition.Options{}}, // JaBeJaSwap's base, for the refinement delta
			}
			type q struct{ rf, bal float64 }
			measured := map[string]q{}
			swaps := map[string]partition.SwapStats{}
			for _, ds := range famDatasets {
				g, err := loadGraph(cfg, ds)
				if err != nil {
					return nil, err
				}
				for _, sp := range specs {
					s, err := partition.New(sp.name, sp.opt)
					if err != nil {
						return nil, err
					}
					a, err := partition.ParallelPartition(g, s, parts, cfg.Seed, cfg.Workers)
					if err != nil {
						return nil, err
					}
					measured[ds+"/"+sp.name] = q{a.ReplicationFactor(), a.EdgeBalance()}
					r.Row(report.Dims{Dataset: ds, Strategy: sp.name, Parts: parts}).
						Col(ds, sp.name).
						Metric("replication-factor", a.ReplicationFactor(), "ratio", 3).
						Metric("edge-balance", a.EdgeBalance(), "max/mean", 3)
				}
				// JaBeJaSwap's refinement telemetry: rounds, proposal and
				// acceptance counts, and the RF it started from and reached.
				_, st, err := partition.JaBeJaSwap{}.PartitionStats(g, parts, cfg.Seed)
				if err != nil {
					return nil, err
				}
				swaps[ds] = st
				d := report.Dims{Dataset: ds, Strategy: "JaBeJaSwap", Parts: parts, Variant: "swap-stats"}
				r.Cell(d, "swap-rounds", float64(st.Rounds), "rounds")
				r.Cell(d, "swap-proposed", float64(st.Proposed), "swaps")
				r.Cell(d, "swap-accepted", float64(st.Accepted), "swaps")
				r.Cell(d, "rf-before-swap", st.RFBefore, "ratio")
				r.Cell(d, "rf-after-swap", st.RFAfter, "ratio")
			}

			// HEP's budget dial on the power-law graph: budget→0 degrades to
			// single-loader HDRF, budget→1 is fully in-memory NE.
			ukWeb, err := loadGraph(cfg, "uk-web")
			if err != nil {
				return nil, err
			}
			dial := map[float64]float64{}
			for _, b := range famBudgets {
				a, err := partition.ParallelPartition(ukWeb, partition.MustNew("HEP", partition.Options{MemBudget: b}), parts, cfg.Seed, cfg.Workers)
				if err != nil {
					return nil, err
				}
				dial[b] = a.ReplicationFactor()
				r.Row(report.Dims{Dataset: "uk-web", Strategy: "HEP", Parts: parts,
					Variant: fmt.Sprintf("budget=%.2f", b)}).
					Col("uk-web", fmt.Sprintf("HEP budget=%.2f", b)).
					Metric("replication-factor", a.ReplicationFactor(), "ratio", 3).
					Metric("edge-balance", a.EdgeBalance(), "max/mean", 3)
			}

			// --- verdicts ---------------------------------------------
			lj := func(name string) q { return measured["livejournal/"+name] }
			between := lj("HDRF").rf <= lj("HEP").rf && lj("HEP").rf <= lj("Hybrid").rf &&
				lj("HDRF").bal <= 1.05 && lj("HEP").bal <= 1.05
			r.Checkf(between, "HEP RF between pure-streaming HDRF and Hybrid at equal balance",
				"livejournal: HDRF %.3f ≤ HEP %.3f ≤ Hybrid %.3f at balance %.3f/%.3f: %s",
				lj("HDRF").rf, lj("HEP").rf, lj("Hybrid").rf, lj("HDRF").bal, lj("HEP").bal, Mark(between))
			mono := dial[0.9] <= dial[0.5] && dial[0.5] <= dial[0.1] &&
				dial[0.1] <= measured["uk-web/HDRF"].rf
			r.Checkf(mono, "HEP's memory budget dials RF monotonically from streaming toward in-memory quality",
				"uk-web RF by budget: 0.9→%.3f ≤ 0.5→%.3f ≤ 0.1→%.3f ≤ streaming HDRF %.3f: %s",
				dial[0.9], dial[0.5], dial[0.1], measured["uk-web/HDRF"].rf, Mark(mono))
			uk := swaps["uk-web"]
			improves := uk.RFAfter < uk.RFBefore && uk.Accepted > 0
			r.Checkf(improves, "JaBeJaSwap strictly improves RF over its base assignment on the power-law dataset",
				"uk-web: swap refinement %.3f → %.3f over %d rounds (%d/%d swaps accepted): %s",
				uk.RFBefore, uk.RFAfter, uk.Rounds, uk.Accepted, uk.Proposed, Mark(improves))
			balKept := true
			for _, ds := range famDatasets {
				if measured[ds+"/JaBeJaSwap"].bal != measured[ds+"/Random"].bal {
					balKept = false
				}
			}
			r.Checkf(balKept, "JaBeJaSwap preserves its base assignment's edge balance exactly",
				"whole-edge swaps keep per-partition loads identical to the Random base on every graph: %s", Mark(balKept))
			mlBeats := true
			for _, ds := range famDatasets {
				if measured[ds+"/Multilevel"].rf >= measured[ds+"/Random"].rf {
					mlBeats = false
				}
			}
			r.Checkf(mlBeats, "the offline Multilevel baseline beats Random's RF on every graph",
				"coarsen/partition/uncoarsen under-cuts hashed placement on all three regimes: %s", Mark(mlBeats))
			r.Notef("cells carry no Engine dimension (like dyn.*): these measure the partitioners themselves, outside the advisor's engine-keyed mining; HDRF runs Loaders:1 as the pure-streaming anchor")
			return r, nil
		},
	}
}
