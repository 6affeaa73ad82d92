package advisor

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// seedModel fits the advisor from the committed scale-1 baseline report
// and the builtin manifests, once per test binary.
var seedOnce = struct {
	sync.Once
	rep  *report.Report
	mans []datasets.Manifest
	err  error
}{}

func seedInputs(t *testing.T) (*report.Report, []datasets.Manifest) {
	t.Helper()
	seedOnce.Do(func() {
		f, err := os.Open("../../BENCH_seed1.json")
		if err != nil {
			seedOnce.err = err
			return
		}
		defer f.Close()
		seedOnce.rep, seedOnce.err = report.Decode(f)
		if seedOnce.err != nil {
			return
		}
		for _, n := range datasets.Names() {
			m, err := datasets.BuildManifest(n, 1)
			if err != nil {
				seedOnce.err = err
				return
			}
			seedOnce.mans = append(seedOnce.mans, m)
		}
	})
	if seedOnce.err != nil {
		t.Fatalf("seed inputs: %v", seedOnce.err)
	}
	return seedOnce.rep, seedOnce.mans
}

func seedModel(t *testing.T) *Model {
	t.Helper()
	rep, mans := seedInputs(t)
	m, err := Fit(rep, mans)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return m
}

func TestFitCoversAllEngines(t *testing.T) {
	m := seedModel(t)
	want := []string{"GraphX", "PowerGraph", "PowerLyra"}
	if got := m.Engines(); !reflect.DeepEqual(got, want) {
		t.Errorf("Engines() = %v, want %v", got, want)
	}
	for _, eng := range m.Engines() {
		if n := len(m.Observations(eng)); n < 4 {
			t.Errorf("engine %s: only %d observations extracted from the seed report", eng, n)
		}
	}
	if m.Skipped != 0 {
		t.Errorf("%d observation groups skipped despite manifests for every builtin", m.Skipped)
	}
}

// TestDeterministicRecommendation is the advisor determinism contract:
// fitting twice from the same report and manifests yields an identical
// model (same rendered trees) and identical recommendations, including
// the explanation traces and predicted cells.
func TestDeterministicRecommendation(t *testing.T) {
	rep, mans := seedInputs(t)
	m1, err := Fit(rep, mans)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(rep, mans)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Explain() != m2.Explain() {
		t.Fatalf("two fits of the same inputs render different trees:\n--- first ---\n%s\n--- second ---\n%s", m1.Explain(), m2.Explain())
	}
	for _, man := range mans {
		for _, sys := range []partition.System{
			partition.PowerGraph, partition.PowerLyra, partition.GraphX,
			partition.PowerLyraAll, partition.GraphXAll,
		} {
			for _, ratio := range []float64{0.25, 5} {
				w := WorkloadFor(man, 25, ratio, "PageRank(C)")
				r1, err1 := m1.Recommend(sys, w)
				r2, err2 := m2.Recommend(sys, w)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s/%s: error mismatch: %v vs %v", man.Name, sys, err1, err2)
				}
				if !reflect.DeepEqual(r1, r2) {
					t.Errorf("%s/%s ratio=%g: recommendations differ:\n%+v\n%+v", man.Name, sys, ratio, r1, r2)
				}
			}
		}
	}
}

func TestRecommendationsAreConstructible(t *testing.T) {
	m := seedModel(t)
	_, mans := seedInputs(t)
	for _, man := range mans {
		for _, sys := range []partition.System{
			partition.PowerGraph, partition.PowerLyra, partition.GraphX,
			partition.PowerLyraAll, partition.GraphXAll, partition.AllFamilies,
		} {
			w := WorkloadFor(man, 25, 1, "WCC")
			rec, err := m.Recommend(sys, w)
			if err != nil {
				t.Fatalf("%s/%s: %v", man.Name, sys, err)
			}
			if rec.Source != "empirical" {
				t.Errorf("%s/%s: source %q", man.Name, sys, rec.Source)
			}
			if rec.Confidence < 0 || rec.Confidence > 1 {
				t.Errorf("%s/%s: confidence %g outside [0,1]", man.Name, sys, rec.Confidence)
			}
			if len(rec.Explanation) == 0 {
				t.Errorf("%s/%s: empty explanation trace", man.Name, sys)
			}
			names, err := partition.SystemStrategies(sys)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, n := range names {
				if n == rec.Strategy {
					found = true
				}
			}
			if !found {
				t.Errorf("%s/%s: recommended %q, not a %s strategy", man.Name, sys, rec.Strategy, sys)
			}
			if _, err := partition.New(rec.Strategy, partition.Options{}); err != nil {
				t.Errorf("%s/%s: recommended unconstructible strategy %q", man.Name, sys, rec.Strategy)
			}
		}
	}
}

// TestGridNeverRecommendedOffSquare mirrors the paper trees' constraint:
// Grid needs an N×N machine arrangement.
func TestGridNeverRecommendedOffSquare(t *testing.T) {
	m := seedModel(t)
	_, mans := seedInputs(t)
	for _, man := range mans {
		for machines := 5; machines <= 26; machines++ {
			w := WorkloadFor(man, machines, 0.5, "PageRank(C)")
			rec, err := m.Recommend(partition.PowerGraph, w)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Strategy == "Grid" && !decision.PerfectSquare(machines) {
				t.Errorf("%s machines=%d: Grid recommended off-square", man.Name, machines)
			}
		}
	}
}

// TestInSampleRegret replays every measured end-to-end workload through
// the fitted model: the recommended strategy's measured total must stay
// within 20% of the best measured strategy (the regret experiment in
// internal/bench asserts the same bound against fresh measurements).
func TestInSampleRegret(t *testing.T) {
	m := seedModel(t)
	sysOf := map[string]partition.System{
		"PowerGraph": partition.PowerGraph,
		"PowerLyra":  partition.PowerLyraAll,
		"GraphX":     partition.GraphXAll,
	}
	cases := 0
	for _, eng := range m.Engines() {
		for _, o := range m.Observations(eng) {
			if o.Kind != KindTotal {
				continue
			}
			rec, err := m.Recommend(sysOf[eng], o.W)
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", eng, o.Dataset, o.App, err)
			}
			score, ok := o.Scores[rec.Strategy]
			if !ok {
				// The recommendation came from wider leaf evidence than
				// this observation measured (fig6.6 scores only two
				// strategies); nothing to grade.
				continue
			}
			cases++
			if regret := score/o.BestScore - 1; regret > 0.20 {
				t.Errorf("%s %s/%s/%s: advisor picked %s with regret %.1f%% (best %s)",
					eng, o.Dataset, o.App, o.Variant, rec.Strategy, 100*regret, o.Best)
			}
		}
	}
	if cases < 10 {
		t.Fatalf("only %d gradeable end-to-end workloads; seed report should provide more", cases)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("nil report accepted")
	}
	empty := &report.Report{SchemaVersion: report.SchemaVersion, Tool: "test"}
	if _, err := Fit(empty, nil); err == nil {
		t.Error("empty report accepted")
	}
	// Cells without manifests are skipped, which must surface as an error
	// when nothing remains.
	rep := &report.Report{SchemaVersion: report.SchemaVersion, Tool: "test",
		Experiments: []report.Experiment{{ID: "x", Cells: []report.Cell{
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: "mystery", Strategy: "HDRF"}, Metric: "total-s", Value: 1},
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: "mystery", Strategy: "Grid"}, Metric: "total-s", Value: 2},
		}}}}
	if _, err := Fit(rep, nil); err == nil {
		t.Error("report whose only dataset lacks a manifest accepted")
	}
}

func TestUnmeasuredEngineErrors(t *testing.T) {
	_, mans := seedInputs(t)
	rep := &report.Report{SchemaVersion: report.SchemaVersion, Tool: "test",
		Experiments: []report.Experiment{{ID: "x", Cells: []report.Cell{
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "HDRF", Cluster: "EC2-25", Parts: 25}, Metric: "ingress-seconds", Value: 1},
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "Grid", Cluster: "EC2-25", Parts: 25}, Metric: "ingress-seconds", Value: 2},
		}}}}
	m, err := Fit(rep, mans)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(mans[0], 25, 1, "")
	if _, err := m.Recommend(partition.GraphX, w); err == nil {
		t.Error("recommendation for an unmeasured engine did not error")
	}
}

// TestNearestDatasetPrediction: a workload naming no registered dataset
// still gets predictions, pulled from its feature-space neighbor.
func TestNearestDatasetPrediction(t *testing.T) {
	m := seedModel(t)
	_, mans := seedInputs(t)
	var road datasets.Manifest
	for _, man := range mans {
		if man.Name == "road-ca" {
			road = man
		}
	}
	ext := road
	ext.Name = "my-road-graph"
	w := WorkloadFor(ext, 25, 0.5, "PageRank(C)")
	rec, err := m.Recommend(partition.PowerGraph, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Predicted) == 0 {
		t.Fatal("no predicted cells for an unmeasured dataset")
	}
	for _, c := range rec.Predicted {
		if c.Dims.Dataset != "road-ca" {
			t.Errorf("prediction drawn from %s, want nearest neighbor road-ca", c.Dims.Dataset)
		}
		if c.Dims.Strategy != rec.Strategy {
			t.Errorf("predicted cell for %s, want recommended %s", c.Dims.Strategy, rec.Strategy)
		}
	}
}

func TestMachinesOf(t *testing.T) {
	cases := []struct {
		cluster string
		parts   int
		want    int
	}{
		{"EC2-25", 25, 25},
		{"Local-9", 9, 9},
		{"GraphX-Local-9", 36, 9},
		{"GraphX-Local-10", 40, 10},
		{"", 16, 16},
		{"weird", 7, 7},
	}
	for _, tc := range cases {
		if got := machinesOf(tc.cluster, tc.parts); got != tc.want {
			t.Errorf("machinesOf(%q, %d) = %d, want %d", tc.cluster, tc.parts, got, tc.want)
		}
	}
}

func TestVariantRatio(t *testing.T) {
	if r, ok := variantRatio("iters=25"); !ok || r != 5 {
		t.Errorf("iters=25 → (%g, %v)", r, ok)
	}
	if r, ok := variantRatio("iters=2"); !ok || r != 0.4 {
		t.Errorf("iters=2 → (%g, %v)", r, ok)
	}
	if _, ok := variantRatio("λ=1.00"); ok {
		t.Error("non-iters variant parsed")
	}
}

func TestNaturalApp(t *testing.T) {
	for app, want := range map[string]bool{
		"PageRank(10)": true, "PageRank(C)": true, "PageRank": true,
		"WCC": false, "SSSP": false, "K-Core": false, "Coloring": false, "": false,
	} {
		if NaturalApp(app) != want {
			t.Errorf("NaturalApp(%q) = %v", app, !want)
		}
	}
}

// TestModelIsARule pins the package contract: the fitted model is a
// decision.Rule and can stand beside decision.PaperTrees.
func TestModelIsARule(t *testing.T) {
	var rules []decision.Rule = []decision.Rule{decision.PaperTrees(), seedModel(t)}
	if rules[0].Name() == rules[1].Name() {
		t.Error("rule names collide")
	}
}
