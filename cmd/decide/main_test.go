package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/report"
)

// TestInputDatasetExclusive pins the flag contract: -input and -dataset
// together, or neither, are usage errors (exit code 2), not a silent
// preference for one of them.
func TestInputDatasetExclusive(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(options{input: "a.txt", dataset: "road-ca"}, &out); code != 2 || err == nil {
		t.Errorf("both -input and -dataset: code=%d err=%v, want usage error", code, err)
	}
	if code, err := run(options{}, &out); code != 2 || err == nil {
		t.Errorf("neither -input nor -dataset: code=%d err=%v, want usage error", code, err)
	}
	if code, err := run(options{dataset: "road-ca", scale: 1, machines: 0}, &out); code != 2 || err == nil {
		t.Errorf("-machines 0: code=%d err=%v, want usage error", code, err)
	}
}

func TestUnknownDatasetFails(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(options{dataset: "no-such-graph", scale: 1, machines: 9}, &out); code != 1 || err == nil {
		t.Errorf("unknown dataset: code=%d err=%v, want runtime error", code, err)
	}
}

// TestPaperTreeOutput runs the tree-only path and checks every system line
// appears with a strategy.
func TestPaperTreeOutput(t *testing.T) {
	var out bytes.Buffer
	code, err := run(options{dataset: "road-ca", scale: 1, machines: 16, ratio: 0.5, explain: true}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"PowerGraph", "PowerLyra", "GraphX", "GraphX-All", "paper-tree", "low-degree"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "empirical") {
		t.Error("empirical rule ran without -report")
	}
}

// TestJSONReportDecodes: the -json output must round-trip through the
// shared report schema, with the recommended strategies in the dims.
func TestJSONReportDecodes(t *testing.T) {
	var out bytes.Buffer
	code, err := run(options{
		dataset: "road-ca", scale: 1, machines: 9, ratio: 1,
		reportPath: "../../BENCH_seed1.json", allSystems: true, jsonOut: "-",
	}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	rep, err := report.Decode(&out)
	if err != nil {
		t.Fatalf("output is not a valid report: %v", err)
	}
	if rep.Tool != "decide" || len(rep.Experiments) != 1 {
		t.Fatalf("unexpected report shape: tool=%q experiments=%d", rep.Tool, len(rep.Experiments))
	}
	sources := map[string]bool{}
	systems := map[string]bool{}
	for _, c := range rep.Experiments[0].Cells {
		if c.Metric != "confidence" {
			continue
		}
		if c.Dims.Strategy == "" {
			t.Errorf("confidence cell without a recommended strategy: %s", c.Key())
		}
		sources[c.Dims.Variant] = true
		systems[c.Dims.Engine] = true
	}
	for _, want := range []string{"paper-tree", "empirical"} {
		if !sources[want] {
			t.Errorf("no %s recommendations in the JSON report", want)
		}
	}
	// -all-systems covers all five systems.
	for _, want := range []string{"PowerGraph", "PowerLyra", "GraphX", "GraphX-All", "PowerLyra-All"} {
		if !systems[want] {
			t.Errorf("no recommendation for system %s", want)
		}
	}
}

// TestEmpiricalDeterministic: the same dataset + report always produces
// byte-identical JSON (the advisor determinism contract, end to end).
func TestEmpiricalDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		code, err := run(options{
			dataset: "livejournal", scale: 1, machines: 25, ratio: 2, app: "PageRank(C)",
			reportPath: "../../BENCH_seed1.json", jsonOut: "-",
		}, &out)
		if err != nil || code != 0 {
			t.Fatalf("code=%d err=%v", code, err)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("two identical invocations differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestTextOutputDeterministic: six identical -input invocations print one
// byte-identical report, the avoid lines included.
func TestTextOutputDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var edges strings.Builder
	for v := 1; v < 300; v++ {
		fmt.Fprintf(&edges, "%d %d\n%d %d\n", v, v-1, v, v%7)
	}
	if err := os.WriteFile(path, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 6; i++ {
		var out bytes.Buffer
		if code, err := run(options{input: path, machines: 16, ratio: 1, explain: true}, &out); err != nil || code != 0 {
			t.Fatalf("run %d: code=%d err=%v", i, code, err)
		}
		switch {
		case i == 0:
			first = out.String()
			if !strings.Contains(first, "avoid on PowerLyra:") {
				t.Fatalf("no avoid lines:\n%s", first)
			}
		case out.String() != first:
			t.Fatalf("run %d differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, first, i, out.String())
		}
	}
}
