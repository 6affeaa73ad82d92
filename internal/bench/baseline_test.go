package bench

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphpart/internal/par"
	"graphpart/internal/report"
)

// TestCellsMatchCommittedBaseline pins what the goldens and report.Compare
// cannot see. The goldens cover rendered columns only, and Compare is
// one-directional (new, extra or reordered cells are not regressions), so
// r.Cell/Row.Value/r.Check output — fig5.9's per-strategy totals, tab7.1's
// compute seconds, fit slopes, fig7.1's passing checks — could drift or
// multiply unnoticed. Here every experiment's Cells must equal the
// committed BENCH_seed1.json entry in count, order, key and unit, with
// values inside report.DefaultRelTol in both directions, and its Checks in
// count, order, claim and verdict. No unit is exempt: a report holds no
// wall-clock value.
func TestCellsMatchCommittedBaseline(t *testing.T) {
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
			res := runDefault(t, e)
			if len(res.Cells) != len(want.Cells) {
				t.Fatalf("%d cells, baseline has %d", len(res.Cells), len(want.Cells))
			}
			for i, got := range res.Cells {
				b := want.Cells[i]
				if got.Key() != b.Key() || got.Unit != b.Unit {
					t.Fatalf("cell %d is %s [%s], baseline has %s [%s]", i, got.Key(), got.Unit, b.Key(), b.Unit)
				}
				denom := math.Max(math.Abs(got.Value), math.Abs(b.Value))
				if denom > 0 && math.Abs(got.Value-b.Value)/denom > report.DefaultRelTol {
					t.Errorf("cell %d %s = %g, baseline %g", i, got.Key(), got.Value, b.Value)
				}
			}
			if len(res.Checks) != len(want.Checks) {
				t.Fatalf("%d checks, baseline has %d", len(res.Checks), len(want.Checks))
			}
			for i, got := range res.Checks {
				if b := want.Checks[i]; got.Claim != b.Claim || got.Pass != b.Pass {
					t.Errorf("check %d is %q pass=%v, baseline has %q pass=%v", i, got.Claim, got.Pass, b.Claim, b.Pass)
				}
			}
		})
	}
}

// defaultRuns holds each experiment's DefaultConfig result, so the golden
// and the baseline test read one run.
var defaultRuns par.OnceMap[string, *Result]

func runDefault(t *testing.T, e Experiment) *Result {
	t.Helper()
	res, err := defaultRuns.Get(context.Background(), e.ID, func() (*Result, error) { return e.Run(DefaultConfig()) })
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return res
}
