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
// experiment, and any failed render, must produce a non-zero exit code.
func TestRunExitCode(t *testing.T) {
	cfg := bench.DefaultConfig()
	if code := run([]bench.Experiment{goodExperiment()}, cfg, "", io.Discard, io.Discard); code != 0 {
		t.Errorf("healthy run exited %d, want 0", code)
	}
	var stderr strings.Builder
	if code := run([]bench.Experiment{goodExperiment(), badExperiment()}, cfg, "", io.Discard, &stderr); code != 1 {
		t.Errorf("failing experiment exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "synthetic failure") {
		t.Errorf("stderr does not report the failure: %q", stderr.String())
	}
	if code := run([]bench.Experiment{goodExperiment()}, cfg, "", failWriter{}, io.Discard); code != 1 {
		t.Errorf("render failure exited %d, want 1", code)
	}
}

// TestRenderCarriesFigure: the plain table carries the experiment's ASCII
// figure after its rows, and its paper line before the title.
func TestRenderCarriesFigure(t *testing.T) {
	var stdout strings.Builder
	if code := run([]bench.Experiment{figureExperiment()}, bench.DefaultConfig(), "", &stdout, io.Discard); code != 0 {
		t.Fatalf("figure run exited %d", code)
	}
	want := "paper: n/a\n## fig — with figure\na\n-\n1\n\nASCII-FIGURE-CONTENT\n\n"
	if stdout.String() != want {
		t.Errorf("plain render = %q, want %q", stdout.String(), want)
	}
}

// TestJSONReport drives the full CLI path for -json: the written report
// decodes and holds the run's one experiment and its one cell, and -json -
// keeps stdout report-only.
func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if code := run([]bench.Experiment{goodExperiment()}, bench.DefaultConfig(), path, io.Discard, io.Discard); code != 0 {
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

	var stdout strings.Builder
	if code := run([]bench.Experiment{goodExperiment()}, bench.DefaultConfig(), "-", &stdout, io.Discard); code != 0 {
		t.Fatalf("json-to-stdout run exited %d", code)
	}
	if !strings.HasPrefix(stdout.String(), "{") {
		t.Fatalf("-json - wrote more than the report to stdout:\n%s", stdout.String())
	}
	if _, err := report.Decode(strings.NewReader(stdout.String())); err != nil {
		t.Fatalf("stdout report does not decode: %v", err)
	}
}
