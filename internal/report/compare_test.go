package report

import (
	"strings"
	"testing"
)

func twoCellReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "benchrunner",
		Experiments: []Experiment{
			{
				ID: "e1", Title: "one",
				Cells: []Cell{
					{Dims: Dims{Dataset: "road-ca", Strategy: "HDRF"}, Metric: "rf", Value: 1.5, Unit: "ratio"},
					{Dims: Dims{Dataset: "road-ca", Strategy: "Grid"}, Metric: "rf", Value: 2.0, Unit: "ratio"},
				},
				Checks: []Check{
					{Claim: "HDRF beats Grid", Observed: "1.5 < 2.0 ✓", Pass: true},
					{Claim: "known deviation", Observed: "✗", Pass: false},
				},
			},
		},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if diffs := Compare(twoCellReport(), twoCellReport(), 0); len(diffs) != 0 {
		t.Fatalf("identical reports diff: %+v", diffs)
	}
}

func TestCompareToleranceAndRegression(t *testing.T) {
	base, cur := twoCellReport(), twoCellReport()
	// Inside tolerance: no diff.
	cur.Experiments[0].Cells[0].Value = 1.5 * (1 + 1e-9)
	if diffs := Compare(base, cur, 1e-6); len(diffs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %+v", diffs)
	}
	// Tolerance 0 demands exactness: the same tiny drift flags.
	if diffs := Compare(base, cur, 0); len(diffs) != 1 {
		t.Fatalf("exact compare missed a drift: %+v", diffs)
	}
	// Negative tolerance falls back to the default, which absorbs it.
	if diffs := Compare(base, cur, -1); len(diffs) != 0 {
		t.Fatalf("negative tolerance did not use the default: %+v", diffs)
	}
	// Beyond tolerance: one value diff, direction-agnostic.
	cur.Experiments[0].Cells[0].Value = 1.2
	diffs := Compare(base, cur, 1e-6)
	if len(diffs) != 1 || diffs[0].Kind != DiffValue {
		t.Fatalf("diffs = %+v, want one value diff", diffs)
	}
	if diffs[0].Base != 1.5 || diffs[0].Current != 1.2 {
		t.Errorf("diff values = %+v", diffs[0])
	}
	if !strings.Contains(diffs[0].String(), "e1") {
		t.Errorf("diff string %q missing experiment id", diffs[0].String())
	}
	// No unit is exempt: a "/s" cell is held to the same tolerance as any
	// other (reports hold no wall-clock value, so none needs a wider band).
	base, cur = twoCellReport(), twoCellReport()
	base.Experiments[0].Cells[1].Unit, cur.Experiments[0].Cells[1].Unit = "edges/s", "edges/s"
	cur.Experiments[0].Cells[1].Value = 2.0 * (1 + 1e-3)
	if diffs := Compare(base, cur, -1); len(diffs) != 1 || diffs[0].Kind != DiffValue {
		t.Fatalf("a 0.1%% drift in a /s cell passed the default tolerance: %+v", diffs)
	}
}

func TestCompareMissingCell(t *testing.T) {
	base, cur := twoCellReport(), twoCellReport()
	cur.Experiments[0].Cells = cur.Experiments[0].Cells[:1]
	diffs := Compare(base, cur, 0)
	if len(diffs) != 1 || diffs[0].Kind != DiffMissingCell {
		t.Fatalf("diffs = %+v, want one missing-cell", diffs)
	}
	if !strings.Contains(diffs[0].Key, "strategy=Grid") {
		t.Errorf("missing-cell key = %q", diffs[0].Key)
	}
	// New cells in cur are additions, not regressions.
	base2, cur2 := twoCellReport(), twoCellReport()
	cur2.Experiments[0].Cells = append(cur2.Experiments[0].Cells,
		Cell{Dims: Dims{Dataset: "new"}, Metric: "rf", Value: 3})
	if diffs := Compare(base2, cur2, 0); len(diffs) != 0 {
		t.Fatalf("added cell flagged: %+v", diffs)
	}
}

func TestCompareMissingExperimentAndError(t *testing.T) {
	base, cur := twoCellReport(), twoCellReport()
	cur.Experiments = nil
	diffs := Compare(base, cur, 0)
	if len(diffs) != 1 || diffs[0].Kind != DiffMissingExperiment {
		t.Fatalf("diffs = %+v, want one missing-experiment", diffs)
	}

	base2, cur2 := twoCellReport(), twoCellReport()
	cur2.Experiments[0].Error = "exploded"
	diffs = Compare(base2, cur2, 0)
	if len(diffs) != 1 || diffs[0].Kind != DiffError {
		t.Fatalf("diffs = %+v, want one error diff", diffs)
	}

	// A baseline experiment that itself errored gates nothing.
	base3, cur3 := twoCellReport(), twoCellReport()
	base3.Experiments[0].Error = "was broken"
	cur3.Experiments = nil
	if diffs := Compare(base3, cur3, 0); len(diffs) != 0 {
		t.Fatalf("errored baseline experiment gated: %+v", diffs)
	}
}

func TestCompareCheckRegression(t *testing.T) {
	// A passing baseline check that now fails regresses.
	base, cur := twoCellReport(), twoCellReport()
	cur.Experiments[0].Checks[0].Pass = false
	diffs := Compare(base, cur, 0)
	if len(diffs) != 1 || diffs[0].Kind != DiffCheck {
		t.Fatalf("diffs = %+v, want one check diff", diffs)
	}
	// A check that failed in the baseline may keep failing.
	base2, cur2 := twoCellReport(), twoCellReport()
	cur2.Experiments[0].Checks[1].Observed = "still failing"
	if diffs := Compare(base2, cur2, 0); len(diffs) != 0 {
		t.Fatalf("pre-existing failure flagged: %+v", diffs)
	}
	// A passing check that vanished regresses too.
	base3, cur3 := twoCellReport(), twoCellReport()
	cur3.Experiments[0].Checks = cur3.Experiments[0].Checks[1:]
	diffs = Compare(base3, cur3, 0)
	if len(diffs) != 1 || diffs[0].Kind != DiffCheck || !strings.Contains(diffs[0].Detail, "missing") {
		t.Fatalf("diffs = %+v, want one vanished-check diff", diffs)
	}
}

// TestScoped: scoping a full baseline to a partial/filtered run must drop
// unselected experiments and pruned cells so they don't read as
// regressions, while nil ids keeps everything.
func TestScoped(t *testing.T) {
	base := twoCellReport()
	base.Experiments = append(base.Experiments, Experiment{
		ID: "e2", Title: "two",
		Cells: []Cell{{Dims: Dims{Dataset: "twitter"}, Metric: "rf", Value: 4}},
	})

	scoped := base.Scoped([]string{"e1"}, nil)
	if len(scoped.Experiments) != 1 || scoped.Experiments[0].ID != "e1" {
		t.Fatalf("scoped experiments = %+v", scoped.Experiments)
	}
	if len(base.Experiments) != 2 {
		t.Fatal("Scoped mutated the original report")
	}

	f, _ := ParseFilter("strategy=HDRF")
	scoped = base.Scoped(nil, f)
	if len(scoped.Experiments) != 2 {
		t.Fatalf("nil ids dropped experiments: %+v", scoped.Experiments)
	}
	if got := len(scoped.Experiments[0].Cells); got != 1 {
		t.Fatalf("filter kept %d cells, want 1", got)
	}
	if scoped.Experiments[0].Cells[0].Dims.Strategy != "HDRF" {
		t.Errorf("wrong cell survived: %+v", scoped.Experiments[0].Cells[0])
	}

	// The composition Compare(base.Scoped(run, filter), filteredRun) is
	// regression-free when the run is simply a subset.
	cur := twoCellReport()
	cur.Experiments[0].Cells = cur.Experiments[0].Cells[:1] // "filtered" to HDRF
	if diffs := Compare(base.Scoped([]string{"e1"}, f), cur, 0); len(diffs) != 0 {
		t.Fatalf("scoped compare flagged a clean subset run: %+v", diffs)
	}
}

func TestRelDelta(t *testing.T) {
	if relDelta(0, 0) != 0 {
		t.Error("relDelta(0,0) != 0")
	}
	if d := relDelta(1, 2); d != 0.5 {
		t.Errorf("relDelta(1,2) = %v, want 0.5", d)
	}
	if relDelta(-1, 1) != 2 {
		t.Errorf("relDelta(-1,1) = %v, want 2", relDelta(-1, 1))
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("dataset=road, strategy=HDRF,dataset=twitter")
	if err != nil {
		t.Fatal(err)
	}
	if len(f["dataset"]) != 2 || len(f["strategy"]) != 1 {
		t.Fatalf("filter = %+v", f)
	}
	if f.String() != "dataset=road,dataset=twitter,strategy=HDRF" {
		t.Errorf("String = %q", f.String())
	}
	if nilF, err := ParseFilter("  "); err != nil || nilF != nil {
		t.Errorf("blank filter = %+v, %v", nilF, err)
	}
	for _, bad := range []string{"dataset", "=x", "dataset=", "bogus=1"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) accepted", bad)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	f, err := ParseFilter("dataset=road,strategy=hdrf")
	if err != nil {
		t.Fatal(err)
	}
	hit := Cell{Dims: Dims{Dataset: "road-usa", Strategy: "HDRF"}, Metric: "rf"}
	if !f.Match(hit) {
		t.Error("substring + case-insensitive match failed")
	}
	for _, miss := range []Cell{
		{Dims: Dims{Dataset: "twitter", Strategy: "HDRF"}}, // wrong dataset
		{Dims: Dims{Dataset: "road-ca", Strategy: "Grid"}}, // wrong strategy
		{Dims: Dims{Strategy: "HDRF"}},                     // dataset absent
	} {
		if f.Match(miss) {
			t.Errorf("filter matched %+v", miss)
		}
	}
	var nilF Filter
	if !nilF.Match(hit) {
		t.Error("nil filter must match everything")
	}
	mf, _ := ParseFilter("metric=rf")
	if !mf.Match(hit) || mf.Match(Cell{Metric: "balance"}) {
		t.Error("metric filter misbehaved")
	}
	// parts is numeric: exact match only, no substring semantics.
	pf, _ := ParseFilter("parts=2")
	if pf.Match(Cell{Dims: Dims{Parts: 25}}) {
		t.Error("parts=2 matched parts=25")
	}
	if !pf.Match(Cell{Dims: Dims{Parts: 2}}) {
		t.Error("parts=2 missed parts=2")
	}
}
