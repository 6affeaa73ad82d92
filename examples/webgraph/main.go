// Web-graph scenario: the paper's Table 5.1 situation. On a power-law web
// graph the partitioning quality (HDRF) and partitioning speed (Grid) pull
// in opposite directions, so the right choice depends on the job's
// compute/ingress ratio — short jobs take Grid, long jobs take HDRF.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

func main() {
	log.SetFlags(0)

	g := datasets.MustLoad("uk-web", 1)
	cls := graph.Classify(g)
	fmt.Printf("dataset %v — class %s (low-degree-ratio %.2f)\n\n", g, cls.Class, cls.LowDegreeRatio)

	cc := cluster.EC2x25
	model := cluster.DefaultModel()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tjob\tingress s\tcompute s\ttotal s")
	totals := map[string]float64{}
	for _, name := range []string{"Grid", "HDRF"} {
		s, err := partition.New(name, partition.Options{})
		if err != nil {
			log.Fatal(err)
		}
		a, err := partition.Partition(g, s, cc.NumParts(), 1)
		if err != nil {
			log.Fatal(err)
		}
		ing := cluster.Ingress(a, s, cc, model)

		pr, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{Tolerance: 1e-2}, a, cc, model,
			engine.Options{MaxSupersteps: 4000})
		if err != nil {
			log.Fatal(err)
		}
		_, kc, err := app.KCoreDecomposition(engine.ModePowerGraph, 3, 16, a, cc, model,
			engine.Options{MaxSupersteps: 4000})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\tPageRank(C) [short]\t%.3f\t%.3f\t%.3f\n",
			name, ing.Seconds, pr.Stats.ComputeSeconds, ing.Seconds+pr.Stats.ComputeSeconds)
		fmt.Fprintf(w, "%s\tK-core [long]\t%.3f\t%.3f\t%.3f\n",
			name, ing.Seconds, kc.ComputeSeconds, ing.Seconds+kc.ComputeSeconds)
		totals[name+"/short"] = ing.Seconds + pr.Stats.ComputeSeconds
		totals[name+"/long"] = ing.Seconds + kc.ComputeSeconds
	}
	w.Flush()

	short, long := "Grid", "Grid"
	if totals["HDRF/short"] < totals["Grid/short"] {
		short = "HDRF"
	}
	if totals["HDRF/long"] < totals["Grid/long"] {
		long = "HDRF"
	}
	fmt.Printf("\nmeasured winner — short job: %s, long job: %s\n", short, long)
	fmt.Printf("decision tree (Fig 5.9) — short job: %s, long job: %s\n",
		decision.PowerGraph(decision.Workload{Class: cls.Class, Machines: cc.Machines, ComputeIngressRatio: 0.5}),
		decision.PowerGraph(decision.Workload{Class: cls.Class, Machines: cc.Machines, ComputeIngressRatio: 5}))
}
