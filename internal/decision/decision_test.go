package decision

import (
	"math"
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

func TestPowerGraphTree(t *testing.T) {
	// Every path of Fig 5.9.
	cases := []struct {
		w    Workload
		want string
	}{
		{Workload{Class: graph.LowDegree, Machines: 25}, "HDRF"},
		{Workload{Class: graph.HeavyTailed, Machines: 25}, "Grid"},
		{Workload{Class: graph.HeavyTailed, Machines: 24}, "HDRF"},
		{Workload{Class: graph.PowerLaw, Machines: 25, ComputeIngressRatio: 10}, "HDRF"},
		{Workload{Class: graph.PowerLaw, Machines: 25, ComputeIngressRatio: 0.5}, "Grid"},
	}
	for _, tc := range cases {
		if got := PowerGraph(tc.w); got != tc.want {
			t.Errorf("PowerGraph(%+v) = %s, want %s", tc.w, got, tc.want)
		}
	}
}

func TestPowerLyraTree(t *testing.T) {
	// Every path of Fig 6.6. Note the "Natural Application?" node comes
	// after "Low degree graph?": low-degree graphs pick Oblivious even for
	// natural applications (§6.4.4).
	cases := []struct {
		w    Workload
		want string
	}{
		{Workload{Class: graph.LowDegree, NaturalApp: true}, "Oblivious"},
		{Workload{Class: graph.LowDegree}, "Oblivious"},
		{Workload{Class: graph.HeavyTailed, NaturalApp: true, Machines: 16}, "Hybrid"},
		{Workload{Class: graph.HeavyTailed, Machines: 16}, "Grid"},
		{Workload{Class: graph.HeavyTailed, Machines: 10}, "Hybrid"},
		{Workload{Class: graph.PowerLaw, Machines: 16, ComputeIngressRatio: 5}, "Oblivious"},
		{Workload{Class: graph.PowerLaw, Machines: 16, ComputeIngressRatio: 0.2}, "Grid"},
		{Workload{Class: graph.PowerLaw, NaturalApp: true, Machines: 16}, "Hybrid"},
	}
	for _, tc := range cases {
		if got, _ := powerLyraTrace(tc.w); got != tc.want {
			t.Errorf("powerLyraTrace(%+v) = %s, want %s", tc.w, got, tc.want)
		}
	}
}

func TestGraphXTrees(t *testing.T) {
	if got, _ := graphXTrace(Workload{Class: graph.LowDegree}); got != "CanonicalRandom" {
		t.Errorf("GraphX low-degree = %s", got)
	}
	if got, _ := graphXTrace(Workload{Class: graph.PowerLaw}); got != "2D" {
		t.Errorf("GraphX power-law = %s", got)
	}
	if got, _ := graphXTrace(Workload{Class: graph.HeavyTailed}); got != "2D" {
		t.Errorf("GraphX heavy-tailed = %s", got)
	}
	// Fig 9.3 adds the job-length branch for low-degree graphs.
	if got := GraphXAll(Workload{Class: graph.LowDegree, ComputeIngressRatio: 0.5}); got != "CanonicalRandom" {
		t.Errorf("GraphXAll short low-degree = %s", got)
	}
	if got := GraphXAll(Workload{Class: graph.LowDegree, ComputeIngressRatio: 8}); got != "HDRF" {
		t.Errorf("GraphXAll long low-degree = %s", got)
	}
	if got := GraphXAll(Workload{Class: graph.PowerLaw}); got != "2D" {
		t.Errorf("GraphXAll power-law = %s", got)
	}
}

func TestRecommendDispatch(t *testing.T) {
	w := Workload{Class: graph.HeavyTailed, Machines: 25}
	for _, sys := range []partition.System{
		partition.PowerGraph, partition.PowerLyra, partition.GraphX,
		partition.PowerLyraAll, partition.GraphXAll,
	} {
		rec, err := PaperTrees().Recommend(sys, w)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if _, err := partition.New(rec.Strategy, partition.Options{}); err != nil {
			t.Errorf("%s recommends unconstructible strategy %q", sys, rec.Strategy)
		}
	}
	if _, err := PaperTrees().Recommend(partition.System("bogus"), w); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestRecommendationsAreRunnable(t *testing.T) {
	// Recommended strategies must actually be valid for the cluster size
	// given (Grid only recommended for perfect squares).
	for machines := 4; machines <= 36; machines++ {
		w := Workload{Class: graph.HeavyTailed, Machines: machines}
		name := PowerGraph(w)
		if name == "Grid" && !PerfectSquare(machines) {
			t.Errorf("machines=%d: Grid recommended for non-square cluster", machines)
		}
	}
}

// TestPaperTreesReproduceEveryLeaf drives the Rule-source form of the
// trees through every leaf of Figs 5.9, 6.6 and 9.3 and pins both the
// strategy and the presence of an explanation trace. This is the contract
// the refactor must hold: expressing the trees as a pluggable Rule beside
// the empirical advisor changes nothing about what they answer.
func TestPaperTreesReproduceEveryLeaf(t *testing.T) {
	rule := PaperTrees()
	if rule.Name() != "paper-tree" {
		t.Fatalf("rule name %q", rule.Name())
	}
	cases := []struct {
		sys  partition.System
		w    Workload
		want string
	}{
		// Fig 5.9, all five leaves.
		{partition.PowerGraph, Workload{Class: graph.LowDegree, Machines: 25}, "HDRF"},
		{partition.PowerGraph, Workload{Class: graph.HeavyTailed, Machines: 25}, "Grid"},
		{partition.PowerGraph, Workload{Class: graph.HeavyTailed, Machines: 24}, "HDRF"},
		{partition.PowerGraph, Workload{Class: graph.PowerLaw, Machines: 25, ComputeIngressRatio: 10}, "HDRF"},
		{partition.PowerGraph, Workload{Class: graph.PowerLaw, Machines: 25, ComputeIngressRatio: 0.5}, "Grid"},
		// Fig 6.6, all six leaves (low-degree wins over natural, §6.4.4).
		{partition.PowerLyra, Workload{Class: graph.LowDegree, NaturalApp: true}, "Oblivious"},
		{partition.PowerLyra, Workload{Class: graph.HeavyTailed, NaturalApp: true, Machines: 16}, "Hybrid"},
		{partition.PowerLyra, Workload{Class: graph.HeavyTailed, Machines: 16}, "Grid"},
		{partition.PowerLyra, Workload{Class: graph.HeavyTailed, Machines: 10}, "Hybrid"},
		{partition.PowerLyra, Workload{Class: graph.PowerLaw, Machines: 16, ComputeIngressRatio: 5}, "Oblivious"},
		{partition.PowerLyra, Workload{Class: graph.PowerLaw, Machines: 16, ComputeIngressRatio: 0.2}, "Grid"},
		// PowerLyra-All shares the Fig 6.6 walk (§8.2.1).
		{partition.PowerLyraAll, Workload{Class: graph.PowerLaw, NaturalApp: true, Machines: 16}, "Hybrid"},
		{partition.PowerLyraAll, Workload{Class: graph.LowDegree}, "Oblivious"},
		// §7.4 rule of thumb, both leaves.
		{partition.GraphX, Workload{Class: graph.LowDegree}, "CanonicalRandom"},
		{partition.GraphX, Workload{Class: graph.HeavyTailed}, "2D"},
		{partition.GraphX, Workload{Class: graph.PowerLaw}, "2D"},
		// Fig 9.3, all three leaves.
		{partition.GraphXAll, Workload{Class: graph.LowDegree, ComputeIngressRatio: 0.5}, "CanonicalRandom"},
		{partition.GraphXAll, Workload{Class: graph.LowDegree, ComputeIngressRatio: 8}, "HDRF"},
		{partition.GraphXAll, Workload{Class: graph.PowerLaw}, "2D"},
	}
	for _, tc := range cases {
		rec, err := rule.Recommend(tc.sys, tc.w)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.sys, tc.w, err)
		}
		if rec.Strategy != tc.want {
			t.Errorf("%s %+v = %s, want %s", tc.sys, tc.w, rec.Strategy, tc.want)
		}
		if len(rec.Explanation) == 0 {
			t.Errorf("%s %+v: empty explanation trace", tc.sys, tc.w)
		}
		if rec.Source != "paper-tree" || rec.Confidence != 1 {
			t.Errorf("%s: source %q confidence %g", tc.sys, rec.Source, rec.Confidence)
		}
	}
	if _, err := rule.Recommend(partition.System("bogus"), Workload{}); err == nil {
		t.Error("unknown system accepted by PaperTrees")
	}
}

func TestSystems(t *testing.T) {
	if got := Systems(false); len(got) != 4 {
		t.Errorf("Systems(false) = %v", got)
	}
	all := Systems(true)
	if len(all) != 5 || all[4] != partition.PowerLyraAll {
		t.Errorf("Systems(true) = %v", all)
	}
}

func TestAvoidLists(t *testing.T) {
	if m := Avoid(partition.PowerLyra); m["H-Ginger"] == "" || m["Random"] == "" {
		t.Error("PowerLyra avoid list missing H-Ginger/Random")
	}
	if m := Avoid(partition.PowerGraph); m["Random"] == "" {
		t.Error("PowerGraph avoid list missing Random")
	}
	if Avoid(partition.System("bogus")) != nil {
		t.Error("unknown system should have nil avoid list")
	}
}

func TestPerfectSquare(t *testing.T) {
	// The top rows are the ones a counting loop never finishes: 1.3 s at
	// 2⁶², and k*k wraps before it passes MaxInt64.
	cases := []struct {
		n    int
		want bool
	}{
		{-4, false}, {0, true}, {1, true}, {2, false}, {24, false}, {25, true},
		{1 << 62, true}, {1<<62 - 1, false},
		{3037000499 * 3037000499, true}, // the largest square an int64 holds
		{math.MaxInt64, false},
	}
	for _, tc := range cases {
		if got := PerfectSquare(tc.n); got != tc.want {
			t.Errorf("PerfectSquare(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
