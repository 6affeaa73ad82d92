// Shape assertions: every experiment's committed seed-1 verdict must
// reproduce the paper's qualitative claims (its structured Checks must
// pass). The single documented exception is fig8.4's K-core
// utilization-correlation branch (see docs/EXPERIMENTS.md).
package main

import (
	"os"
	"strings"
	"testing"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

// allowedMisses maps experiment id → substrings of failed checks' observed
// evidence (or claim) that are allowed to fail: the documented deviations.
var allowedMisses = map[string][]string{
	"fig8.4": {"K-Core: utilization-vs-compute"},
}

// TestAllExperimentsReproducePaperShapes: every experiment's entry in
// BENCH_seed1.json ran without error, emitted typed cells, and reproduces
// the paper's qualitative claims — each failing check is one of
// allowedMisses. It runs no experiment, so it checks the slow experiments'
// verdicts under -short too; internal/bench's TestCellsMatchCommittedBaseline
// holds every run to these verdicts.
func TestAllExperimentsReproducePaperShapes(t *testing.T) {
	f, err := os.Open("BENCH_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := report.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]report.Experiment{}
	for _, e := range base.Experiments {
		byID[e.ID] = e
	}
	for _, e := range bench.All() {
		t.Run(e.ID, func(t *testing.T) {
			want, ok := byID[e.ID]
			switch {
			case !ok:
				t.Fatalf("%s is not in BENCH_seed1.json (regenerate it)", e.ID)
			case want.Error != "":
				t.Fatalf("%s: %s", e.ID, want.Error)
			case len(want.Cells) == 0:
				t.Fatalf("%s: no typed cells emitted", e.ID)
			}
			for _, c := range want.Checks {
				if !c.Pass && !allowedMiss(e.ID, c) {
					t.Errorf("%s: shape missed: %s", e.ID, c.Observed)
				}
			}
		})
	}
}

// allowedMiss reports whether a failed check of experiment id is a
// documented deviation.
func allowedMiss(id string, c report.Check) bool {
	for _, pat := range allowedMisses[id] {
		if strings.Contains(c.Observed, pat) || strings.Contains(c.Claim, pat) {
			return true
		}
	}
	return false
}

func TestExperimentRegistryLookup(t *testing.T) {
	if _, ok := bench.Get("fig5.3"); !ok {
		t.Fatal("fig5.3 not registered")
	}
	if _, ok := bench.Get("fig99.9"); ok {
		t.Fatal("bogus id found")
	}
	all := bench.All()
	for i, e := range all {
		if i > 0 && all[i-1].ID >= e.ID {
			t.Errorf("All() not sorted by unique ID: %s before %s", all[i-1].ID, e.ID)
		}
		if got, ok := bench.Get(e.ID); !ok || got.Title != e.Title {
			t.Errorf("Get(%q) = %q, %v; All() lists %q", e.ID, got.Title, ok, e.Title)
		}
		if e.Title == "" || e.Paper == "" {
			t.Errorf("%s: missing title or paper summary", e.ID)
		}
	}
	// All hands out a copy: a caller that edits it changes no later call.
	first := all[0].ID
	all[0].ID = "mutated"
	if got := bench.All()[0].ID; got != first {
		t.Errorf("All()[0].ID = %q after a caller mutated its copy, want %q", got, first)
	}
}
