package main

import (
	"bytes"
	"strings"
	"testing"
)

func miniConfig(t *testing.T) (*config, *bytes.Buffer) {
	log := &bytes.Buffer{}
	return &config{seed: 5, seconds: 0.02, workers: 2, sz: miniSizes, dir: t.TempDir(), log: log, probe: newProbe()}, log
}

// Every workload, at a few thousand edges, in both modes: the outcome
// carries exactly the metrics BENCHMARK.json declares for that mode,
// every end-to-end value is positive, and nothing fails.
func TestEveryWorkloadReportsEveryDeclaredMetric(t *testing.T) {
	decl, _, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	everLive := map[string]bool{}
	for i, wl := range workloads {
		if decl.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, decl.Workloads[i].Name, wl.name)
		}
		for _, traced := range []bool{false, true} {
			c, log := miniConfig(t)
			out, err := measure(wl.new(), wl.name, c, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, traced, err)
			}
			if log.Len() > 0 {
				t.Errorf("%s (traced %v): failures were logged:\n%s", wl.name, traced, log)
			}
			list, err := declared(decl, out)
			if err != nil {
				t.Error(err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed", wl.name, traced, out.Failed, out.Attempted)
			}
			for _, m := range list {
				v := out.Metrics[m.Name]
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", wl.name, m.Name, v)
				}
				if v != 0 {
					everLive[m.Name] = true
				}
			}
			if traced {
				if c := out.Metrics["trace.coverage_frac"]; c <= 0 || c > 1.0001 {
					t.Errorf("%s: trace.coverage_frac = %v", wl.name, c)
				}
				if _, err := chromeTrace(out.spans); err != nil {
					t.Errorf("%s: Chrome trace: %v", wl.name, err)
				}
			}
		}
	}
	// A per-layer metric reads 0 where its layer is idle, but one that no
	// workload ever moves measures nothing.
	for _, m := range decl.PerLayer {
		switch m.Name {
		case "service.status_4xx", "service.status_5xx", "proc.gc_cycles", "proc.peak_rss_mb": // 0 is a healthy reading; no /proc off Linux
		default:
			if !everLive[m.Name] {
				t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
			}
		}
	}
}

// A wrong answer must count as a failure and be named: with the oracle's
// reference corrupted after set-up, every workload reports failed
// operations and says which.
func TestAWrongAnswerIsCounted(t *testing.T) {
	for _, wl := range workloads {
		c, log := miniConfig(t)
		c.sabotage = true
		out, err := measure(wl.new(), wl.name, c, false)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if out.Failed == 0 {
			t.Errorf("%s: the corrupted reference went unnoticed (%d operations, 0 failed)", wl.name, out.Attempted)
		}
		if !strings.Contains(log.String(), "FAIL "+wl.name+": ") {
			t.Errorf("%s: the failure was not named: %q", wl.name, log)
		}
	}
}

func TestDeclarationFitsTheContract(t *testing.T) {
	decl, _, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if len(m.Name) > 64 || len(m.Unit) > 16 || m.Unit == "" {
			t.Errorf("metric %s: name or unit %q outside the contract's limits", m.Name, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range decl.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}

func TestCostLines(t *testing.T) {
	out := &outcome{Workload: "w", Metrics: map[string]float64{
		"proc.workers": 2, "partition.speedup": 1.68, "engine.speedup": 0.97,
	}}
	got := strings.Join(costLines(out), "\n")
	for _, want := range []string{"COST w partition: 2 workers beat 1 by ×1.68", "COST w engine: 2 workers never beat 1 (×0.97)"} {
		if !strings.Contains(got, want) {
			t.Errorf("cost lines %q lack %q", got, want)
		}
	}
	if strings.Contains(got, "graphx") {
		t.Errorf("a layer the workload never ran has no cost line: %q", got)
	}
}
