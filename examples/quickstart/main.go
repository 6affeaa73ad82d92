// Quickstart: load a registered dataset, inspect its manifest, partition it
// with every strategy a system ships, compare replication factors and
// balance, and ask the paper's decision tree what it would have picked.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/partition"
)

func main() {
	log.SetFlags(0)

	// 1. A heavy-tailed social graph from the dataset registry (the paper's
	//    LiveJournal stand-in), with its measured manifest. A process builds
	//    each (name, scale) once.
	g := datasets.MustLoad("livejournal", 1)
	m, err := datasets.BuildManifest("livejournal", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s (%s, stands in for %s vertices / %s edges)\n",
		m.Name, m.Kind, m.PaperVerts, m.PaperEdges)
	fmt.Printf("graph %v — class %s (max degree %d, avg %.1f, degree Gini %.2f)\n\n",
		g, m.Class, m.Stats.MaxDegree, m.Stats.AvgDegree, m.Stats.Gini)

	// 2. Partition it on a simulated 9-machine cluster with every
	//    PowerLyra strategy and compare quality.
	cc := cluster.Local9
	model := cluster.DefaultModel()
	names, err := partition.SystemStrategies(partition.PowerLyra)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\treplication\tedge balance\tingress (sim s)")
	for _, name := range names {
		s, err := partition.New(name, partition.Options{HybridThreshold: 30})
		if err != nil {
			log.Fatal(err)
		}
		a, err := partition.Partition(g, s, cc.NumParts(), 1)
		if err != nil {
			// PDS needs p²+p+1 machines; skip it on 9, as the paper does.
			fmt.Fprintf(w, "%s\t(skipped: %v)\t\t\n", name, err)
			continue
		}
		ing := cluster.Ingress(a, s, cc, model)
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\n",
			name, a.ReplicationFactor(), a.EdgeBalance(), ing.Seconds)
	}
	w.Flush()

	// 3. What does the paper's decision tree recommend?
	rec, err := decision.PaperTrees().Recommend(partition.PowerLyra, decision.Workload{
		Class:               m.Class,
		Machines:            cc.Machines,
		ComputeIngressRatio: 2, // long-running job
		NaturalApp:          true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecision tree (Fig 6.6) recommends: %s\n", rec.Strategy)
	for _, a := range decision.Avoid(partition.PowerLyra) {
		fmt.Printf("avoid %-12s %s\n", a.Strategy+":", a.Why)
	}
}
