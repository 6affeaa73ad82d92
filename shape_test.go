// Shape assertions: every experiment must run, render, and reproduce the
// paper's qualitative claims (its structured Checks must pass). The single
// documented exception is fig8.4's K-core utilization-correlation branch
// (see EXPERIMENTS.md).
package main

import (
	"strings"
	"testing"

	"graphpart/internal/bench"
)

// allowedMisses maps experiment id → substrings of failed checks' observed
// evidence that are allowed to fail (documented deviations).
var allowedMisses = map[string][]string{
	"fig8.4": {"K-Core: utilization-vs-compute"},
}

// slowExperiments are the table reproductions that dominate the suite's
// wall-clock (multi-second engine simulations). They are gated behind the
// full run so that `go test -short` keeps the other ~24 experiments and
// finishes in well under 20s.
var slowExperiments = map[string]bool{
	"fig5.3":     true, // strategy×app engine sweep (shared by 5.3–5.5)
	"fig5.4":     true, // same sweep, compute-time axis
	"fig5.5":     true, // same sweep, peak-memory axis
	"fig8.4":     true, // utilization box plots over every app
	"fig5.9":     true, // compute/ingress break-even sweep
	"tab5.1":     true, // Grid-vs-HDRF across every cluster shape
	"adv.regret": true, // uk-web engine sweeps feeding the advisor fit
	"dyn.drift":  true, // 9 churn traces over uk-web plus one-shot baselines
}

func TestAllExperimentsReproducePaperShapes(t *testing.T) {
	cfg := bench.DefaultConfig()
	exps := bench.All()
	if len(exps) < 23 {
		t.Fatalf("only %d experiments registered; the paper has 23 reproduced artifacts", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowExperiments[e.ID] {
				t.Skipf("%s takes multiple seconds; run without -short", e.ID)
			}
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(res.Cells) == 0 {
				t.Fatalf("%s: no typed cells emitted", e.ID)
			}
			table := res.Table()
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			var sb strings.Builder
			if err := table.Render(&sb); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Errorf("%s: rendered output missing experiment id", e.ID)
			}
			for _, c := range res.Checks {
				if c.Pass {
					continue
				}
				allowed := false
				for _, pat := range allowedMisses[e.ID] {
					if strings.Contains(c.Observed, pat) || strings.Contains(c.Claim, pat) {
						allowed = true
					}
				}
				if !allowed {
					t.Errorf("%s: shape missed: %s", e.ID, c.Observed)
				}
			}
		})
	}
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
