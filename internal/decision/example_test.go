package decision_test

import (
	"fmt"

	"graphpart/internal/decision"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// ExamplePaperTrees walks the Fig 5.9 tree for a long job on a power-law
// web graph and prints the recommended strategy, then the explanation
// trace every recommendation source carries.
func ExamplePaperTrees() {
	w := decision.Workload{
		Class:               graph.PowerLaw,
		Machines:            25,
		ComputeIngressRatio: 4,
	}
	rec, err := decision.PaperTrees().Recommend(partition.PowerGraph, w)
	if err != nil {
		panic(err)
	}
	fmt.Println(rec.Strategy)
	for _, line := range rec.Explanation {
		fmt.Println(line)
	}
	// Output:
	// HDRF
	// power-law graph
	// compute/ingress ratio 4.00 > 1 (long job) → HDRF/Oblivious
}
