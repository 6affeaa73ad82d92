package main

import (
	"errors"
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

// TestJSONReport drives the full CLI path for -json: the written report
// decodes and holds the run's one experiment and its one cell.
func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if code := run([]bench.Experiment{goodExperiment()}, bench.DefaultConfig(), options{jsonOut: path}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("json run exited %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Decode(f)
	f.Close()
	if err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(rep.Experiments) != 1 || len(rep.Experiments[0].Cells) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep.Experiments)
	}
}

// TestOptionRefusals: output switches that cannot all be honoured are
// refused before anything runs, naming what collides; -json and -csv naming
// one file used to write the report and then truncate it with the CSV.
func TestOptionRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts options
		want string // "" = accepted
	}{
		{"both stream to stdout", options{jsonOut: "-", csvOut: "-"}, "cannot both stream"},
		{"one file", options{jsonOut: "out", csvOut: "out"}, "both name out"},
		{"one file, two spellings", options{jsonOut: "./dir/../out", csvOut: "out"}, "both name out"},
		{"markdown with json on stdout", options{markdown: true, jsonOut: "-"}, "-markdown cannot render"},
		{"markdown with csv on stdout", options{markdown: true, csvOut: "-"}, "-markdown cannot render"},
		{"two files", options{jsonOut: "out.json", csvOut: "out.csv"}, ""},
		{"json on stdout, csv to a file", options{jsonOut: "-", csvOut: "out.csv"}, ""},
		{"markdown with reports in files", options{markdown: true, jsonOut: "out.json", csvOut: "out.csv"}, ""},
		{"no reports", options{}, ""},
	} {
		err := tc.opts.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a refusal containing %q", tc.name, err, tc.want)
		}
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
