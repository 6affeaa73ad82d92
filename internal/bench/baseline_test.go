package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphpart/internal/par"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// baselineRelTol is the relative slack a cell value has against the
// baseline. Experiment runs are deterministic, so the gate is tight; the
// slack absorbs float noise across toolchains, not real drift.
const baselineRelTol = 1e-6

// committedBaseline decodes BENCH_seed1.json, requires it to hold exactly
// the registry's experiments at DefaultConfig, and returns its entries by
// experiment id.
func committedBaseline(t *testing.T) map[string]report.Experiment {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "BENCH_seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := report.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DefaultConfig().Info(), base.Manifest.Config; got.Scale != want.Scale ||
		got.Seed != want.Seed || got.HybridThreshold != want.HybridThreshold {
		t.Fatalf("baseline was produced with %+v, the test runs %+v", want, got)
	}
	baseByID := map[string]report.Experiment{}
	for _, e := range base.Experiments {
		baseByID[e.ID] = e
	}
	if len(baseByID) != len(All()) {
		t.Errorf("baseline holds %d experiments, the registry %d", len(baseByID), len(All()))
	}
	return baseByID
}

// TestCellsMatchCommittedBaseline is the one regression gate on the
// experiment matrix. The goldens cover rendered columns only, so
// r.Cell/Row.Value/r.Check output — fig5.9's per-strategy totals, tab7.1's
// compute seconds, fit slopes, fig7.1's passing checks — could drift or
// multiply unnoticed. Here every experiment's Cells must equal the
// committed BENCH_seed1.json entry in count, order, key and unit, with
// values inside baselineRelTol in both directions, and its Checks in
// count, order, claim and verdict. No unit is exempt: a report holds no
// wall-clock value. An experiment that errors, or is missing from either
// side, fails, as does a baseline produced at another config.
func TestCellsMatchCommittedBaseline(t *testing.T) {
	baseByID := committedBaseline(t)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && goldenSlow[e.ID] {
				t.Skipf("%s takes multiple seconds; run without -short", e.ID)
			}
			want, ok := baseByID[e.ID]
			if !ok {
				t.Fatalf("%s is not in BENCH_seed1.json (regenerate it)", e.ID)
			}
			res := seed1Result(t, e.ID)
			for _, d := range baselineDiff(res.Cells, res.Checks, want) {
				t.Error(d)
			}
		})
	}
}

// baselineDiff lists how cells and checks differ from the baseline entry,
// each message naming the cell key or check claim that moved.
func baselineDiff(cells []report.Cell, checks []report.Check, want report.Experiment) []string {
	cellID := func(c report.Cell) string { return c.Key() + " [" + c.Unit + "]" }
	drift := func(got, b report.Cell) string {
		denom := math.Max(math.Abs(got.Value), math.Abs(b.Value))
		if denom > 0 && math.Abs(got.Value-b.Value)/denom > baselineRelTol {
			return fmt.Sprintf("%g, baseline %g", got.Value, b.Value)
		}
		return ""
	}
	checkID := func(c report.Check) string { return strconv.Quote(c.Claim) }
	verdict := func(got, b report.Check) string {
		if got.Pass != b.Pass {
			return fmt.Sprintf("pass=%v, baseline pass=%v", got.Pass, b.Pass)
		}
		return ""
	}
	return append(diffList("cell", cells, want.Cells, cellID, drift),
		diffList("check", checks, want.Checks, checkID, verdict)...)
}

// diffList compares got with the baseline's want position by position: id
// names an entry, and moved describes how two entries with one id differ
// ("" when they agree). At the first id mismatch the comparison stops, since
// every later entry would mismatch too; it names the one entry inserted or
// dropped there when that explains the shift. A count mismatch with matching
// ids names the first extra or missing entry.
func diffList[T any](what string, got, want []T, id func(T) string, moved func(got, base T) string) []string {
	var out []string
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if g, b := id(got[i]), id(want[i]); g != b {
			switch {
			case len(got) < len(want) && g == id(want[i+1]):
				return append(out, fmt.Sprintf("baseline %s %d %s is missing", what, i, b))
			case len(got) > len(want) && id(got[i+1]) == b:
				return append(out, fmt.Sprintf("%s %d %s is not in the baseline", what, i, g))
			}
			return append(out, fmt.Sprintf("%s %d is %s, baseline has %s", what, i, g, b))
		}
		if m := moved(got[i], want[i]); m != "" {
			out = append(out, fmt.Sprintf("%s %d %s: %s", what, i, id(got[i]), m))
		}
	}
	switch {
	case len(got) > n:
		out = append(out, fmt.Sprintf("%d %ss, baseline has %d: %s %d %s is not in the baseline", len(got), what, len(want), what, n, id(got[n])))
	case len(want) > n:
		out = append(out, fmt.Sprintf("%d %ss, baseline has %d: baseline %s %d %s is missing", len(got), what, len(want), what, n, id(want[n])))
	}
	return out
}

// TestBaselineDiffNamesWhatMoved: every way a run can leave the baseline
// fails the gate with a message naming the cell key or check claim that
// moved, in both directions.
func TestBaselineDiffNamesWhatMoved(t *testing.T) {
	cell := func(strategy string, v float64) report.Cell {
		return report.Cell{Dims: report.Dims{Dataset: "road-ca", Strategy: strategy}, Metric: "rf", Value: v, Unit: "ratio"}
	}
	base := report.Experiment{
		ID:     "e",
		Cells:  []report.Cell{cell("HDRF", 1.5), cell("Grid", 2), cell("Random", 3)},
		Checks: []report.Check{{Claim: "HDRF beats Grid", Pass: true}, {Claim: "known deviation", Pass: false}},
	}
	for _, tc := range []struct {
		name   string
		mutate func(*report.Experiment)
		want   string // "" = no difference
	}{
		{"identical", func(*report.Experiment) {}, ""},
		{"drift inside tolerance", func(e *report.Experiment) { e.Cells[1].Value *= 1 + 1e-9 }, ""},
		{"value drift", func(e *report.Experiment) { e.Cells[1].Value *= 1.5 },
			"cell 1 dataset=road-ca|strategy=Grid|metric=rf [ratio]: 3, baseline 2"},
		{"unit change", func(e *report.Experiment) { e.Cells[0].Unit = "x" },
			"cell 0 is dataset=road-ca|strategy=HDRF|metric=rf [x], baseline has dataset=road-ca|strategy=HDRF|metric=rf [ratio]"},
		{"missing last cell", func(e *report.Experiment) { e.Cells = e.Cells[:2] },
			"baseline cell 2 dataset=road-ca|strategy=Random|metric=rf [ratio] is missing"},
		{"missing middle cell", func(e *report.Experiment) { e.Cells = append(e.Cells[:1], e.Cells[2]) },
			"baseline cell 1 dataset=road-ca|strategy=Grid|metric=rf [ratio] is missing"},
		{"extra middle cell", func(e *report.Experiment) {
			e.Cells = append([]report.Cell{e.Cells[0], cell("DBH", 4)}, e.Cells[1:]...)
		}, "cell 1 dataset=road-ca|strategy=DBH|metric=rf [ratio] is not in the baseline"},
		{"extra cell", func(e *report.Experiment) { e.Cells = append(e.Cells, cell("DBH", 4)) },
			"cell 3 dataset=road-ca|strategy=DBH|metric=rf [ratio] is not in the baseline"},
		{"check stopped passing", func(e *report.Experiment) { e.Checks[0].Pass = false },
			`check 0 "HDRF beats Grid": pass=false, baseline pass=true`},
		{"check started passing", func(e *report.Experiment) { e.Checks[1].Pass = true },
			`check 1 "known deviation": pass=true, baseline pass=false`},
		{"missing check", func(e *report.Experiment) { e.Checks = e.Checks[:1] },
			`baseline check 1 "known deviation" is missing`},
		{"extra check", func(e *report.Experiment) { e.Checks = append(e.Checks, report.Check{Claim: "new claim", Pass: true}) },
			`check 2 "new claim" is not in the baseline`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := report.Experiment{
				Cells:  append([]report.Cell(nil), base.Cells...),
				Checks: append([]report.Check(nil), base.Checks...),
			}
			tc.mutate(&cur)
			diffs := baselineDiff(cur.Cells, cur.Checks, base)
			switch {
			case tc.want == "" && len(diffs) != 0:
				t.Errorf("flagged %q", diffs)
			case tc.want != "" && (len(diffs) != 1 || !strings.Contains(diffs[0], tc.want)):
				t.Errorf("got %q, want one difference naming %q", diffs, tc.want)
			}
		})
	}
}

// seed1Workers is the shared pass's concurrency: three experiments in
// flight, each on three engine and ingress workers.
const seed1Workers = 3

// seed1Pass is the one DefaultConfig pass over the registry that the golden,
// baseline and purity tests read, keyed by experiment id. It starts from
// empty caches and leaves out goldenSlow under -short.
var seed1Pass = sync.OnceValue(func() map[string]RunResult {
	resetCaches()
	var exps []Experiment
	for _, e := range All() {
		if !testing.Short() || !goldenSlow[e.ID] {
			exps = append(exps, e)
		}
	}
	byID := map[string]RunResult{}
	for _, rr := range seed1Runner(seed1Workers).Run(exps) {
		byID[rr.Experiment.ID] = rr
	}
	return byID
})

// seed1Runner runs at DefaultConfig with the given worker bound.
func seed1Runner(workers int) Runner {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return Runner{Config: cfg}
}

// seed1Result returns experiment id's result from the shared pass.
func seed1Result(t *testing.T, id string) *Result {
	t.Helper()
	rr, ok := seed1Pass()[id]
	if !ok {
		t.Fatalf("%s is not in the shared pass", id)
	}
	if rr.Err != nil {
		t.Fatalf("%s: %v", id, rr.Err)
	}
	return rr.Result
}

// resetCaches empties the assignment and point caches, so the next run
// recomputes everything.
func resetCaches() {
	assignments = par.OnceMap[asgKey, *partition.Assignment]{}
	points = par.OnceMap[pointKey, *point]{}
}
