package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/bench"
	"graphpart/internal/report"
)

func goodExperiment() bench.Experiment {
	return bench.Experiment{
		ID: "good", Title: "healthy", Paper: "n/a",
		Run: func(bench.Config) (*bench.Result, error) {
			r := bench.NewResult("good", "healthy", "a")
			r.Row(report.Dims{Dataset: "road-ca", Strategy: "HDRF", Parts: 9}).
				Metric("rf", 1.5, "ratio", 2)
			r.Checkf(true, "healthy claim", "all good %s", bench.Mark(true))
			return r, nil
		},
	}
}

func figureExperiment() bench.Experiment {
	return bench.Experiment{
		ID: "fig", Title: "with figure", Paper: "n/a",
		Run: func(bench.Config) (*bench.Result, error) {
			r := bench.NewResult("fig", "with figure", "a")
			r.Row(report.Dims{}).Col("1")
			r.Figure = "ASCII-FIGURE-CONTENT\n"
			return r, nil
		},
	}
}

func badExperiment() bench.Experiment {
	return bench.Experiment{
		ID: "bad", Title: "broken", Paper: "n/a",
		Run: func(bench.Config) (*bench.Result, error) {
			return nil, errors.New("synthetic failure")
		},
	}
}

// failWriter rejects every write, standing in for a closed output pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// TestRunExitCode is the smoke test for the exit path: any failed
// experiment — and any failed render, including in markdown mode, which
// used to swallow render errors — must produce a non-zero exit code.
func TestRunExitCode(t *testing.T) {
	cfg := bench.DefaultConfig()
	for _, markdown := range []bool{false, true} {
		opts := options{markdown: markdown}
		if code := run([]bench.Experiment{goodExperiment()}, cfg, opts, io.Discard, io.Discard); code != 0 {
			t.Errorf("markdown=%v: healthy run exited %d, want 0", markdown, code)
		}
		var stderr strings.Builder
		if code := run([]bench.Experiment{goodExperiment(), badExperiment()}, cfg, opts, io.Discard, &stderr); code != 1 {
			t.Errorf("markdown=%v: failing experiment exited %d, want 1", markdown, code)
		}
		if !strings.Contains(stderr.String(), "synthetic failure") {
			t.Errorf("markdown=%v: stderr does not report the failure: %q", markdown, stderr.String())
		}
		if code := run([]bench.Experiment{goodExperiment()}, cfg, opts, failWriter{}, io.Discard); code != 1 {
			t.Errorf("markdown=%v: render failure exited %d, want 1", markdown, code)
		}
	}
}

// TestRenderMarkdownOutput pins the markdown shape benchrunner emits.
func TestRenderMarkdownOutput(t *testing.T) {
	e := goodExperiment()
	res, err := e.Run(bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := renderMarkdown(&sb, e, res.Table()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## good — healthy", "| a |", "| --- |", "| 1.50 |", "- all good ✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown output missing %q:\n%s", want, out)
		}
	}
}

// TestMarkdownCarriesFigure: plain mode always printed Table.Figure;
// markdown mode used to drop it. Both renderings must now cover the
// figure content (markdown inside a fenced code block).
func TestMarkdownCarriesFigure(t *testing.T) {
	e := figureExperiment()
	res, err := e.Run(bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plain, md strings.Builder
	if err := res.Render(&plain); err != nil {
		t.Fatal(err)
	}
	if err := renderMarkdown(&md, e, res.Table()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "ASCII-FIGURE-CONTENT") {
		t.Fatalf("plain render lost the figure:\n%s", plain.String())
	}
	if !strings.Contains(md.String(), "ASCII-FIGURE-CONTENT") {
		t.Fatalf("markdown render dropped the figure:\n%s", md.String())
	}
	if !strings.Contains(md.String(), "```\nASCII-FIGURE-CONTENT\n```") {
		t.Errorf("figure not fenced in markdown:\n%s", md.String())
	}
	// A figure-less table must not emit an empty fence.
	var md2 strings.Builder
	g := goodExperiment()
	res2, _ := g.Run(bench.DefaultConfig())
	if err := renderMarkdown(&md2, g, res2.Table()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(md2.String(), "```") {
		t.Errorf("figure-less markdown gained a code fence:\n%s", md2.String())
	}
}

// TestJSONReportAndCompare drives the full CLI path: write a JSON report,
// compare a fresh run against it (pass), then against tampered baselines
// (value regression, missing cell) and expect non-zero exits.
func TestJSONReportAndCompare(t *testing.T) {
	cfg := bench.DefaultConfig()
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")

	exps := []bench.Experiment{goodExperiment()}
	if code := run(exps, cfg, options{jsonOut: baseline}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("baseline run exited %d", code)
	}
	f, err := os.Open(baseline)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Decode(f)
	f.Close()
	if err != nil {
		t.Fatalf("baseline does not decode: %v", err)
	}
	if len(rep.Experiments) != 1 || len(rep.Experiments[0].Cells) != 1 {
		t.Fatalf("unexpected baseline shape: %+v", rep.Experiments)
	}

	// Identical run → no regressions.
	var stderr strings.Builder
	if code := run(exps, cfg, options{compare: baseline}, io.Discard, &stderr); code != 0 {
		t.Fatalf("self-compare exited %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no regressions") {
		t.Errorf("stderr missing pass confirmation: %q", stderr.String())
	}

	// Value drift → regression.
	tampered := *rep
	tampered.Experiments = append([]report.Experiment(nil), rep.Experiments...)
	cells := append([]report.Cell(nil), rep.Experiments[0].Cells...)
	cells[0].Value *= 1.5
	tampered.Experiments[0].Cells = cells
	drifted := filepath.Join(dir, "drifted.json")
	writeReport(t, drifted, &tampered)
	stderr.Reset()
	if code := run(exps, cfg, options{compare: drifted}, io.Discard, &stderr); code != 1 {
		t.Fatalf("drifted compare exited %d, want 1:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regression") {
		t.Errorf("stderr missing regression report: %q", stderr.String())
	}

	// Baseline cell absent from the current run → regression.
	extra := *rep
	extra.Experiments = append([]report.Experiment(nil), rep.Experiments...)
	extraCells := append([]report.Cell(nil), rep.Experiments[0].Cells...)
	extraCells = append(extraCells, report.Cell{
		Dims: report.Dims{Dataset: "gone"}, Metric: "vanished", Value: 1})
	extra.Experiments[0].Cells = extraCells
	missing := filepath.Join(dir, "missing.json")
	writeReport(t, missing, &extra)
	stderr.Reset()
	if code := run(exps, cfg, options{compare: missing}, io.Discard, &stderr); code != 1 {
		t.Fatalf("missing-cell compare exited %d, want 1:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "missing-cell") {
		t.Errorf("stderr missing missing-cell diff: %q", stderr.String())
	}

	// An unreadable baseline is an error, not a silent pass.
	if code := run(exps, cfg, options{compare: filepath.Join(dir, "nope.json")}, io.Discard, io.Discard); code != 1 {
		t.Error("absent baseline did not fail the run")
	}
}

// TestCompareScopesSubsetRuns: a -run subset (or -filter) compared against
// a full baseline must only gate what it ran — unselected experiments and
// filter-pruned cells are not regressions; a genuinely drifted cell in the
// selected subset still is.
func TestCompareScopesSubsetRuns(t *testing.T) {
	cfg := bench.DefaultConfig()
	dir := t.TempDir()
	baseline := filepath.Join(dir, "full.json")

	full := []bench.Experiment{goodExperiment(), figureExperiment()}
	if code := run(full, cfg, options{jsonOut: baseline}, io.Discard, io.Discard); code != 0 {
		t.Fatal("full baseline run failed")
	}

	// Subset run: only "good"; the baseline's "fig" experiment must not flag.
	var stderr strings.Builder
	subsetOpts := options{compare: baseline, subset: []string{"good"}}
	if code := run([]bench.Experiment{goodExperiment()}, cfg, subsetOpts, io.Discard, &stderr); code != 0 {
		t.Fatalf("subset compare exited %d:\n%s", code, stderr.String())
	}

	// Filtered run: cells pruned from the current report must not flag.
	f, err := report.ParseFilter("dataset=no-such-dataset")
	if err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	filteredOpts := options{compare: baseline, filter: f}
	if code := run(full, cfg, filteredOpts, io.Discard, &stderr); code != 0 {
		t.Fatalf("filtered compare exited %d:\n%s", code, stderr.String())
	}

	// A real regression inside the subset still fails.
	drift := bench.Experiment{
		ID: "good", Title: "healthy", Paper: "n/a",
		Run: func(bench.Config) (*bench.Result, error) {
			r := bench.NewResult("good", "healthy", "a")
			r.Row(report.Dims{Dataset: "road-ca", Strategy: "HDRF", Parts: 9}).
				Metric("rf", 99.0, "ratio", 2)
			r.Checkf(true, "healthy claim", "all good %s", bench.Mark(true))
			return r, nil
		},
	}
	stderr.Reset()
	if code := run([]bench.Experiment{drift}, cfg, subsetOpts, io.Discard, &stderr); code != 1 {
		t.Fatalf("drifted subset compare exited %d, want 1:\n%s", code, stderr.String())
	}
}

// TestCompareRefusesOtherConfig: a report is a pure function of (scale,
// seed, hybridThreshold), so a baseline from another triple would flag every
// cell. -compare refuses it in one line naming both triples, before any
// experiment runs, and exits 1. Workers never changes a result and is not
// compared.
func TestCompareRefusesOtherConfig(t *testing.T) {
	cfg := bench.DefaultConfig()
	baseline := filepath.Join(t.TempDir(), "base.json")
	if code := run([]bench.Experiment{goodExperiment()}, cfg, options{jsonOut: baseline}, io.Discard, io.Discard); code != 0 {
		t.Fatal("baseline run failed")
	}
	ran := false
	probe := goodExperiment()
	inner := probe.Run
	probe.Run = func(c bench.Config) (*bench.Result, error) { ran = true; return inner(c) }

	base := cfg.Info()
	for name, mutate := range map[string]func(*bench.Config){
		"scale":           func(c *bench.Config) { c.Scale = 2 },
		"seed":            func(c *bench.Config) { c.Seed = 7 },
		"hybridThreshold": func(c *bench.Config) { c.HybridThreshold++ },
	} {
		other := cfg
		mutate(&other)
		ran = false
		var stderr strings.Builder
		if code := run([]bench.Experiment{probe}, other, options{compare: baseline}, io.Discard, &stderr); code != 1 {
			t.Errorf("%s mismatch exited %d, want 1", name, code)
		}
		if ran {
			t.Errorf("%s mismatch: experiments ran before the refusal", name)
		}
		msg := stderr.String()
		o := other.Info()
		for _, triple := range []report.ConfigInfo{base, o} {
			want := fmt.Sprintf("(scale %d, seed %d, hybridThreshold %d)", triple.Scale, triple.Seed, triple.HybridThreshold)
			if !strings.Contains(msg, want) {
				t.Errorf("%s mismatch: stderr %q does not name %s", name, msg, want)
			}
		}
		if strings.Count(msg, "\n") != 1 || strings.Contains(msg, "regression") {
			t.Errorf("%s mismatch: want one refusal line and no diffs, got %q", name, msg)
		}
	}

	other := cfg
	other.Workers = cfg.Workers + 3
	var stderr strings.Builder
	if code := run([]bench.Experiment{probe}, other, options{compare: baseline}, io.Discard, &stderr); code != 0 {
		t.Errorf("a workers-only difference was refused (exit %d):\n%s", code, stderr.String())
	}
}

// TestCSVOutput covers the -csv reporter end to end.
func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cells.csv")
	if code := run([]bench.Experiment{goodExperiment()}, bench.DefaultConfig(),
		options{csvOut: out}, io.Discard, io.Discard); code != 0 {
		t.Fatal("csv run failed")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header + 1 cell:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "experiment,dataset,strategy") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "good,road-ca,HDRF") {
		t.Errorf("csv row = %q", lines[1])
	}

	// -filter applies to CSV exactly as to JSON: a non-matching filter
	// leaves only the header.
	f, err := report.ParseFilter("dataset=twitter")
	if err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "filtered.csv")
	if code := run([]bench.Experiment{goodExperiment()}, bench.DefaultConfig(),
		options{csvOut: out2, filter: f}, io.Discard, io.Discard); code != 0 {
		t.Fatal("filtered csv run failed")
	}
	data2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(strings.TrimSpace(string(data2)), "\n"); len(got) != 1 {
		t.Errorf("filtered csv has %d lines, want header only:\n%s", len(got), data2)
	}
}

func writeReport(t *testing.T, path string, rep *report.Report) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.Encode(f); err != nil {
		t.Fatal(err)
	}
}
