// Package decision picks partitioning strategies. It defines the Rule
// interface every recommendation source implements, the Workload the
// sources branch on, and the paper's three decision trees — Fig 5.9
// (PowerGraph), Fig 6.6 (PowerLyra) and Fig 9.3 (GraphX with all
// strategies) — as the PaperTrees Rule, plus the per-system rules of thumb
// from chapters 7 and 10. The empirical counterpart, a model learned from
// measured bench reports, lives in internal/advisor and implements the
// same Rule interface.
package decision

import (
	"fmt"
	"math"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// Workload describes the inputs recommendation rules branch on. The first
// four fields are the nodes of the paper's trees; the rest are the
// measured degree-skew features (datasets.Manifest.Stats) and workload
// identity that empirical rules use. Zero values mean "unknown" — the
// paper trees never look at them.
type Workload struct {
	// Class is the input graph's degree-distribution class; derive it with
	// graph.Classify if unknown.
	Class graph.DegreeClass
	// Machines is the cluster size (the "N² machines?" node asks whether
	// it is a perfect square).
	Machines int
	// ComputeIngressRatio is expected compute time / ingress time. >1
	// means a long-running job. Jobs whose partitions are saved and
	// reused count as high-ratio (§5.4.3).
	ComputeIngressRatio float64
	// NaturalApp reports whether the application gathers in one direction
	// and scatters in the other (PowerLyra's tree only, §6.1).
	NaturalApp bool

	// Dataset and App optionally name a registered dataset and a benchmark
	// application; empirical rules use them to look up measured cells.
	Dataset string
	App     string
	// Gini, Alpha, R2, LowDegreeRatio, MaxDegree and AvgDegree mirror the
	// measured skew statistics of datasets.DegreeStats: the Gini
	// coefficient of the total-degree distribution and the log-log
	// power-law fit behind Fig 5.8.
	Gini           float64
	Alpha          float64
	R2             float64
	LowDegreeRatio float64
	MaxDegree      int
	AvgDegree      float64
}

// PerfectSquare reports whether n = k² (Grid needs a square machine
// arrangement). It is O(1): the float root is exact below 2⁵³ and at most
// one off above, and the corrections divide rather than square, so nothing
// overflows up to MaxInt.
func PerfectSquare(n int) bool {
	if n < 0 {
		return false
	}
	k := int(math.Sqrt(float64(n)))
	for k > 0 && k > n/k {
		k--
	}
	for k+1 <= n/(k+1) {
		k++
	}
	return k*k == n
}

// PowerGraph is the decision tree of Fig 5.9.
//
//	Low-degree graph?            → HDRF/Oblivious
//	Heavy-tailed? N² machines?   → Grid (else HDRF/Oblivious)
//	Power-law/other:
//	  Compute/Ingress > 1        → HDRF/Oblivious
//	  Compute/Ingress ≤ 1        → Grid
func PowerGraph(w Workload) string {
	s, _ := powerGraphTrace(w)
	return s
}

// powerGraphTrace walks Fig 5.9 and records the branch taken at each node.
func powerGraphTrace(w Workload) (string, []string) {
	switch w.Class {
	case graph.LowDegree:
		return "HDRF", []string{"low-degree graph → HDRF/Oblivious (Fig 5.9)"}
	case graph.HeavyTailed:
		if PerfectSquare(w.Machines) {
			return "Grid", []string{
				"heavy-tailed graph",
				fmt.Sprintf("%d machines form a perfect square → Grid", w.Machines),
			}
		}
		return "HDRF", []string{
			"heavy-tailed graph",
			fmt.Sprintf("%d machines are not a perfect square → HDRF/Oblivious", w.Machines),
		}
	default: // power-law / other
		if w.ComputeIngressRatio > 1 {
			return "HDRF", []string{
				"power-law graph",
				fmt.Sprintf("compute/ingress ratio %.2f > 1 (long job) → HDRF/Oblivious", w.ComputeIngressRatio),
			}
		}
		return "Grid", []string{
			"power-law graph",
			fmt.Sprintf("compute/ingress ratio %.2f ≤ 1 (short job) → Grid", w.ComputeIngressRatio),
		}
	}
}

// powerLyraTrace walks the decision tree of Fig 6.6 and records the branch
// taken at each node: like PowerGraph's, but a natural application on a
// non-low-degree graph prefers Hybrid, and the non-square fallback for
// heavy-tailed graphs is Hybrid too (§6.4.4).
func powerLyraTrace(w Workload) (string, []string) {
	if w.Class == graph.LowDegree {
		return "Oblivious", []string{"low-degree graph → Oblivious (Fig 6.6; even for natural apps, §6.4.4)"}
	}
	if w.NaturalApp {
		return "Hybrid", []string{
			fmt.Sprintf("%s graph", w.Class),
			"natural application (gathers one direction, scatters the other) → Hybrid",
		}
	}
	switch w.Class {
	case graph.HeavyTailed:
		if PerfectSquare(w.Machines) {
			return "Grid", []string{
				"heavy-tailed graph, non-natural application",
				fmt.Sprintf("%d machines form a perfect square → Grid", w.Machines),
			}
		}
		return "Hybrid", []string{
			"heavy-tailed graph, non-natural application",
			fmt.Sprintf("%d machines are not a perfect square → Hybrid", w.Machines),
		}
	default:
		if w.ComputeIngressRatio > 1 {
			return "Oblivious", []string{
				"power-law graph, non-natural application",
				fmt.Sprintf("compute/ingress ratio %.2f > 1 (long job) → Oblivious", w.ComputeIngressRatio),
			}
		}
		return "Grid", []string{
			"power-law graph, non-natural application",
			fmt.Sprintf("compute/ingress ratio %.2f ≤ 1 (short job) → Grid", w.ComputeIngressRatio),
		}
	}
}

// graphXTrace is the native-strategies rule of thumb (§7.4): Canonical
// Random for low-degree/high-diameter graphs, 2D for power-law-like graphs.
func graphXTrace(w Workload) (string, []string) {
	if w.Class == graph.LowDegree {
		return "CanonicalRandom", []string{"low-degree graph → Canonical Random (§7.4)"}
	}
	return "2D", []string{fmt.Sprintf("%s graph → 2D (§7.4)", w.Class)}
}

// GraphXAll is the decision tree of Fig 9.3 (all strategies ported into
// GraphX):
//
//	Low-degree graph?
//	  Compute/Ingress low  → Canonical Random
//	  Compute/Ingress high → HDRF/Oblivious
//	Power-law/other        → 2D
func GraphXAll(w Workload) string {
	s, _ := graphXAllTrace(w)
	return s
}

// graphXAllTrace walks Fig 9.3 and records the branch taken at each node.
func graphXAllTrace(w Workload) (string, []string) {
	if w.Class == graph.LowDegree {
		if w.ComputeIngressRatio > 1 {
			return "HDRF", []string{
				"low-degree graph",
				fmt.Sprintf("compute/ingress ratio %.2f > 1 (long job) → HDRF/Oblivious", w.ComputeIngressRatio),
			}
		}
		return "CanonicalRandom", []string{
			"low-degree graph",
			fmt.Sprintf("compute/ingress ratio %.2f ≤ 1 (short job) → Canonical Random", w.ComputeIngressRatio),
		}
	}
	return "2D", []string{fmt.Sprintf("%s graph → 2D (Fig 9.3)", w.Class)}
}

// Avoid lists strategies the paper recommends against for a system, with
// reasons (§5.4.4, §6.4.4, §8.2.2).
func Avoid(sys partition.System) map[string]string {
	switch sys {
	case partition.PowerGraph:
		return map[string]string{
			"Random": "consistently high replication factor; Grid has similar ingress speed with better partitions (§5.4.4)",
		}
	case partition.PowerLyra, partition.PowerLyraAll:
		return map[string]string{
			"Random":     "consistently high replication factor (§6.4.4)",
			"H-Ginger":   "much slower ingress and higher memory for marginal replication-factor gains over Hybrid (§6.4.4)",
			"AsymRandom": "even worse replication factor than Random (§8.2.2)",
		}
	case partition.GraphX, partition.GraphXAll:
		return map[string]string{
			"AsymRandom": "direction-sensitive hashing splits symmetric edge pairs, inflating replication (§8.2.2)",
		}
	}
	return nil
}
