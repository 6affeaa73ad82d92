package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphpart/internal/advisor"
	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/graph"
	"graphpart/internal/report"
)

// TestTableRender pins the plain table byte for byte: columns padded to the
// widest cell, two-space separators, trailing blanks trimmed, the ruler,
// then the notes and one blank line.
func TestTableRender(t *testing.T) {
	r := NewResult("x.1", "test table", "a", "long-column")
	r.Row(report.Dims{}).Col("1", "2")
	r.Row(report.Dims{}).Col("333", "4")
	r.Notef("note %d", 7)
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := "## x.1 — test table\n" +
		"a    long-column\n" +
		"----------------\n" +
		"1    2\n" +
		"333  4\n" +
		"note: note 7\n\n"
	if got := sb.String(); got != want {
		t.Errorf("render =\n%s\nwant\n%s", got, want)
	}
}

// renderLines renders r and splits the output into lines: [0] the title,
// [1] the header, [2] the ruler, then the rows and notes.
func renderLines(t *testing.T, r *Result) []string {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return strings.Split(sb.String(), "\n")
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 1 {
		t.Errorf("unexpected default config %+v", cfg)
	}
	if (Config{Scale: -3}).scale() != 1 {
		t.Error("negative scale not clamped")
	}
	info := (Config{Scale: -3, Seed: 7, Workers: 2}).Info()
	if info.Scale != 1 || info.Seed != 7 || info.Workers != 2 {
		t.Errorf("unexpected config info %+v", info)
	}
}

// TestResultBuilder covers the typed-result API: rows emit presentation
// columns and cells together, checks carry structured verdicts, and the
// rendered table derives from the same record.
func TestResultBuilder(t *testing.T) {
	r := NewResult("x.2", "builder", "graph", "strategy", "rf", "verdict")
	d := report.Dims{Dataset: "road-ca", Strategy: "HDRF", Parts: 9}
	r.Row(d).Col("road-ca", "HDRF").
		Metric("replication-factor", 1.2345, "ratio", 3).
		Col("fine").
		Value("hidden-metric", 42, "x")
	r.Cell(report.Dims{Dataset: "road-ca"}, "fit-slope", 0.5, "")
	r.Notef("info %d", 1)
	r.Checkf(true, "the claim", "measured %.1f ok %s", 3.5, Mark(true))

	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(r.Cells))
	}
	if got := r.Cells[0]; got.Metric != "replication-factor" || got.Value != 1.2345 || got.Dims != d {
		t.Errorf("unexpected first cell %+v", got)
	}
	if r.Cells[1].Metric != "hidden-metric" || r.Cells[1].Dims != d {
		t.Errorf("Value cell lost row dims: %+v", r.Cells[1])
	}
	if len(r.Checks) != 1 || !r.Checks[0].Pass || r.Checks[0].Claim != "the claim" {
		t.Fatalf("unexpected checks %+v", r.Checks)
	}
	if r.Checks[0].Observed != "measured 3.5 ok ✓" {
		t.Errorf("observed = %q", r.Checks[0].Observed)
	}

	// Title, header, ruler, one row, two notes, the closing blank line:
	// cells without columns must not add rows.
	lines := renderLines(t, r)
	if len(lines) != 8 || lines[7] != "" {
		t.Fatalf("render has %d lines, want 8:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if got, want := lines[3], "road-ca  HDRF      1.234  fine"; got != want {
		t.Errorf("row = %q, want %q", got, want)
	}
	if lines[4] != "note: info 1" || lines[5] != "note: measured 3.5 ok ✓" || lines[6] != "" {
		t.Errorf("notes = %q", lines[4:7])
	}
}

// TestMetricRenderingMatchesSprintf pins the column formatting contract:
// Metric with prec n renders exactly like fmt.Sprintf("%.nf", v), which is
// what keeps the refactored tables byte-identical to the seed renders.
func TestMetricRenderingMatchesSprintf(t *testing.T) {
	r := NewResult("x.3", "fmt", "a", "b", "c")
	r.Row(report.Dims{}).
		Metric("m3", 1.0005, "", 3).
		Metric("m2", 2.675, "", 2).
		Metric("m0", 7, "", 0)
	row := strings.Fields(renderLines(t, r)[3])
	want := []string{fmt.Sprintf("%.3f", 1.0005), fmt.Sprintf("%.2f", 2.675), "7"}
	if len(row) != len(want) {
		t.Fatalf("row = %q, want %d columns", row, len(want))
	}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("col %d = %q, want %q", i, row[i], want[i])
		}
	}
}

func TestAssignmentCacheSharing(t *testing.T) {
	cfg := DefaultConfig()
	a1, err := assignment(cfg, "road-ca", "Random", 9)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := assignment(cfg, "road-ca", "Random", 9)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("assignment cache miss for identical keys")
	}
	a3, err := assignment(cfg, "road-ca", "Random", 16)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a3 {
		t.Error("different part counts shared an assignment")
	}
	if _, err := assignment(cfg, "no-such-dataset", "Random", 9); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := assignment(cfg, "road-ca", "NoSuchStrategy", 9); err == nil {
		t.Error("unknown strategy accepted")
	}

	// measure shares the same once-per-key cache: equal keys are one engine
	// run (the same *point), and everything a point depends on is in the
	// key — a different engine mode runs again.
	measureWCC := func(sys system, cc cluster.Config) *point {
		t.Helper()
		p, err := measure(cfg, sys, "road-ca", "Random", "WCC", cc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := measureWCC(onPowerGraph, cluster.Local9)
	if p1.stats.Supersteps == 0 || p1.rf != a1.ReplicationFactor() || p1.ingress.Seconds <= 0 || p1.gx != nil {
		t.Errorf("measure returned an empty point: %+v", p1)
	}
	if p2 := measureWCC(onPowerGraph, cluster.Local9); p2 != p1 {
		t.Error("measure ran the engine twice for identical keys")
	}
	if p3 := measureWCC(onPowerLyra, cluster.Local9); p3 == p1 || p3.stats.Mode != engine.ModePowerLyra {
		t.Error("a different engine mode shared a point")
	}

	// GraphX points live in the same cache, keyed on the iteration cap too.
	g1 := measureWCC(onGraphX(10), cluster.GraphXLocal9)
	if g1.gx == nil || g1.gx.Iterations == 0 || g1.gx.Iterations > 10 || g1.totalSeconds() != g1.gx.PartitionSeconds+g1.gx.ComputeSeconds {
		t.Errorf("measure returned an empty GraphX point: %+v", g1)
	}
	if g2 := measureWCC(onGraphX(10), cluster.GraphXLocal9); g2 != g1 {
		t.Error("measure ran GraphX twice for identical keys")
	}
	if g3 := measureWCC(onGraphX(2), cluster.GraphXLocal9); g3 == g1 || g3.gx.Iterations > 2 {
		t.Errorf("a different iteration cap shared a point (%d iterations)", g3.gx.Iterations)
	}
	if p4 := measureWCC(onPowerGraph, cluster.GraphXLocal9); p4 == g1 || p4.gx != nil {
		t.Error("a vertex-cut run shared a GraphX point")
	}
}

// TestMeasureUnknownApp: a mistyped application name is an error, not a
// zero engine.Stats.
func TestMeasureUnknownApp(t *testing.T) {
	_, err := measure(DefaultConfig(), onPowerGraph, "road-ca", "Random", "PageRank(11)", cluster.Local9)
	if err == nil || !strings.Contains(err.Error(), `"PageRank(11)"`) {
		t.Errorf("measure with an unknown app returned %v, want an error naming it", err)
	}
	// An app the paper does not run on a system is an error naming both.
	for _, tc := range []struct {
		sys system
		app string
		cc  cluster.Config
	}{
		{onPowerGraph, "PageRank", cluster.Local9},
		{onGraphX(10), "K-Core", cluster.GraphXLocal9},
	} {
		_, err := measure(DefaultConfig(), tc.sys, "road-ca", "Random", tc.app, tc.cc)
		if err == nil || !strings.Contains(err.Error(), tc.app) || !strings.Contains(err.Error(), tc.sys.engine) {
			t.Errorf("%s on %s returned %v, want an error naming both", tc.app, tc.sys.engine, err)
		}
	}
}

// TestTreeGradeRefusesUnmeasuredRecommendation: a tree pick outside the
// measured strategies is an error naming it. Read from a plain map its
// total is 0, and "0 ≤ 1.10 × best" is a vacuous ✓.
func TestTreeGradeRefusesUnmeasuredRecommendation(t *testing.T) {
	m := caseTotals{totals: map[string]float64{"Grid": 2, "HDRF": 3}, best: "Grid", bestT: 2}
	for _, tc := range []struct {
		rec, missing string
		greedyPair   bool
	}{
		{"Oblivious", "Oblivious", false},
		{"HDRF", "Oblivious", true}, // the HDRF/Oblivious leaf reads both
	} {
		_, err := m.within(tc.rec, 1.10, tc.greedyPair)
		if err == nil || !strings.Contains(err.Error(), `"`+tc.missing+`"`) {
			t.Errorf("within(%s, greedyPair=%v) = %v, want an error naming %s", tc.rec, tc.greedyPair, err, tc.missing)
		}
	}
	if ok, err := m.within("HDRF", 1.10, false); err != nil || ok {
		t.Errorf("HDRF at 1.5× the best: within = %v, %v; want false, nil", ok, err)
	}
	m.totals["Oblivious"] = 2.1
	if ok, err := m.within("HDRF", 1.10, true); err != nil || !ok {
		t.Errorf("HDRF leaf with Oblivious at 1.05× the best: within = %v, %v; want true, nil", ok, err)
	}
}

// TestSweepCheckReadsUnmeasuredPoint: a check that reads a point outside
// its sweep must fail the experiment, naming the point. Against a plain
// map both reads are zero and "0 ≥ 0.98·0" is a vacuous ✓.
func TestSweepCheckReadsUnmeasuredPoint(t *testing.T) {
	spec := sweepSpec{engine: enginePowerGraph, datasets: []string{"road-ca"},
		clusters: []cluster.Config{cluster.Local9}, strategies: []string{"Random", "Grid"},
		metrics: []sweepMetric{sweepRF}}
	checkAgainst := func(strategy string) Experiment {
		return sweepExperiment("x.sweep", "sweep", "n/a", "sweep", spec, func(r *Result, g *sweepGrid) {
			pass := g.at("road-ca", cluster.Local9, strategy).rf >= g.at("road-ca", cluster.Local9, "Random").rf*0.98
			r.Checkf(pass, "claim", "%s", Mark(pass))
		})
	}
	res, err := checkAgainst("Grid").Run(DefaultConfig())
	if err != nil {
		t.Fatalf("check over measured points: %v", err)
	}
	if len(res.Cells) != 2 || len(res.Checks) != 1 {
		t.Errorf("sweep emitted %d cells, %d checks; want 2, 1", len(res.Cells), len(res.Checks))
	}
	_, err = checkAgainst("AsymRandom").Run(DefaultConfig())
	if err == nil {
		t.Fatal("check read an unmeasured point and the experiment still succeeded")
	}
	for _, want := range []string{"road-ca", "Local-9", "AsymRandom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestAdvCaseVariantMatchesIterations: the Variant label on a GraphX
// case's cells is derived from the iteration count its run is configured
// with, so the two cannot disagree (the label used to be parsed back with
// an unchecked Sscanf, turning a typo into a silent 0-iteration run).
func TestAdvCaseVariantMatchesIterations(t *testing.T) {
	graphxCases := 0
	for _, c := range advCases() {
		if c.sys.engine != engineGraphX {
			if c.sys.iters != 0 || c.variant() != "" {
				t.Errorf("%s/%s: vertex-cut case carries iters=%d variant=%q", c.ds, c.app, c.sys.iters, c.variant())
			}
			continue
		}
		graphxCases++
		var labelled int
		if _, err := fmt.Sscanf(c.variant(), "iters=%d", &labelled); err != nil {
			t.Errorf("%s/%s: variant %q: %v", c.ds, c.app, c.variant(), err)
		}
		if got := DefaultConfig().graphxConfig(c.cc, c.sys.iters).Iterations; got != labelled || got < 1 {
			t.Errorf("%s/%s: runs %d iterations, cells say %q", c.ds, c.app, got, c.variant())
		}
	}
	if graphxCases == 0 {
		t.Error("no GraphX case graded")
	}
}

func TestExperimentIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig5.3", "fig5.4", "fig5.5", "fig5.6", "fig5.7", "fig5.8", "tab5.1",
		"fig6.1", "fig6.2", "fig6.3", "fig6.4", "fig6.5", "fig6.6",
		"fig7.1", "tab7.1",
		"fig8.1", "fig8.2", "fig8.3", "fig8.4",
		"fig9.1", "fig9.2", "fig9.3", "fig9.4",
		"fig5.9",
		"tab1.1",
		"abl.lambda", "abl.threshold", "abl.loaders", "abl.locality", "abl.engine",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestRankingRowFormatting(t *testing.T) {
	row := rankingRow(map[string]float64{
		"CanonicalRandom": 1.00,
		"1D":              1.02, // within 5% of CR → parenthesized group
		"2D":              1.50,
		"AsymRandom":      1.52, // within 5% of 2D
	})
	if row != "(CR,1D),(2D,R)" {
		t.Errorf("rankingRow = %q, want (CR,1D),(2D,R)", row)
	}
	single := rankingRow(map[string]float64{"1D": 1, "2D": 2})
	if single != "1D,2D" {
		t.Errorf("rankingRow = %q, want 1D,2D", single)
	}
}

func TestClusterNames(t *testing.T) {
	if clusterName(cluster.Config{Machines: 9, PartsPerMachine: 1}) != "Local-9" {
		t.Error("Local-9 name")
	}
	if clusterName(cluster.Config{Machines: 25, PartsPerMachine: 1}) != "EC2-25" {
		t.Error("EC2-25 name")
	}
	if clusterName(cluster.Config{Machines: 10, PartsPerMachine: 4}) != "GraphX-Local-10" {
		t.Error("GraphX-Local-10 name")
	}
}

func TestSSSPSourcePicksHub(t *testing.T) {
	cfg := DefaultConfig()
	g, err := loadGraph(cfg, "twitter")
	if err != nil {
		t.Fatal(err)
	}
	src := ssspSource(g)
	if maxDeg := graph.Classify(g).MaxDegree; g.Degree(src) < maxDeg {
		t.Errorf("source degree %d < max %d", g.Degree(src), maxDeg)
	}
}

func TestPaperAppsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range paperApps() {
		names[s.name] = true
	}
	for _, want := range []string{"PageRank(10)", "PageRank(C)", "WCC", "SSSP", "K-Core", "Coloring"} {
		if !names[want] {
			t.Errorf("paperApps missing %s", want)
		}
	}
}

// TestNaturalAppMatchesProgramDirections holds the two naturalness rules to
// each other: advisor.NaturalApp guesses from an app's name, engine.Natural
// reads its program's gather and scatter directions (§6.1). The listed
// names must be exactly the app table's, so a new row cannot slip past.
func TestNaturalAppMatchesProgramDirections(t *testing.T) {
	programNatural := map[string]bool{
		"PageRank(10)": engine.Natural[float64, float64](app.PageRank{}),
		"PageRank(C)":  engine.Natural[float64, float64](app.PageRank{Tolerance: prConvTolerance}),
		"PageRank":     engine.Natural[float64, float64](app.PageRank{}),
		"WCC":          engine.Natural[uint32, uint32](app.WCC{}),
		"SSSP":         engine.Natural[float64, float64](app.SSSP{}),
		"K-Core":       engine.Natural[int32, int32](app.KCore{}),
		"Coloring":     engine.Natural[int32, app.ColorSet](app.Coloring{}),
	}
	if len(appTable) != len(programNatural) {
		t.Errorf("app table has %d entries, %d programs listed", len(appTable), len(programNatural))
	}
	for _, s := range appTable {
		want, ok := programNatural[s.name]
		if !ok {
			t.Errorf("app table entry %s has no program listed", s.name)
			continue
		}
		if got := advisor.NaturalApp(s.name); got != want {
			t.Errorf("advisor.NaturalApp(%q) = %v, engine.Natural of its program = %v", s.name, got, want)
		}
	}
}

// TestTableRenderRulerWidth: the dash ruler must be exactly as wide as the
// table — column widths plus the two-space separators — not one character
// longer (the old off-by-one double-counted a separator).
func TestTableRenderRulerWidth(t *testing.T) {
	headersWidest := NewResult("r.1", "headers widest", "aaa", "bb", "cccc")
	headersWidest.Row(report.Dims{}).Col("1", "2", "3")
	// Widths driven by a row: the rendered header line is then shorter
	// than the full table width, but the ruler must still span it.
	rowsWidest := NewResult("r.2", "rows widest", "a", "b")
	rowsWidest.Row(report.Dims{}).Col("333", "4444")
	for _, r := range []*Result{headersWidest, rowsWidest} {
		lines := renderLines(t, r)
		ruler := lines[2]
		if strings.Trim(ruler, "-") != "" {
			t.Fatalf("%s: line 2 is not the ruler: %q", r.ID, ruler)
		}
		width := 0
		for _, line := range lines[1:] {
			if line == "" || strings.HasPrefix(line, "-") {
				continue
			}
			if len(line) > width {
				width = len(line)
			}
		}
		if len(ruler) != width {
			t.Errorf("%s: ruler width %d != table width %d:\n%s", r.ID, len(ruler), width, strings.Join(lines, "\n"))
		}
	}
}

// --- Runner -----------------------------------------------------------

func fakeExperiment(id string, cells int, fail bool) Experiment {
	return Experiment{
		ID: id, Title: "fake " + id, Paper: "n/a",
		Run: func(Config) (*Result, error) {
			if fail {
				return nil, errors.New(id + " exploded")
			}
			r := NewResult(id, "fake "+id, "dataset", "v")
			for i := 0; i < cells; i++ {
				ds := []string{"road-ca", "twitter"}[i%2]
				r.Row(report.Dims{Dataset: ds, Strategy: "HDRF"}).
					Col(ds).Metric("m", float64(i), "x", 0)
			}
			r.Checkf(true, id+" claim", "ok %s", Mark(true))
			return r, nil
		},
	}
}

// TestRunnerOrderAndErrors: concurrent execution must preserve input order
// and capture per-experiment failures without aborting the rest.
func TestRunnerOrderAndErrors(t *testing.T) {
	exps := []Experiment{
		fakeExperiment("z.3", 2, false),
		fakeExperiment("a.1", 1, true),
		fakeExperiment("m.2", 4, false),
	}
	progressed := map[string]bool{}
	runner := Runner{Config: Config{Workers: 4}, Progress: func(rr RunResult) {
		progressed[rr.Experiment.ID] = true // serialized by the Runner
	}}
	results := runner.Run(exps)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if len(progressed) != 3 {
		t.Errorf("progress callback saw %d experiments, want 3", len(progressed))
	}
	for i, rr := range results {
		if rr.Experiment.ID != exps[i].ID {
			t.Errorf("result %d = %s, want %s (order not preserved)", i, rr.Experiment.ID, exps[i].ID)
		}
	}
	if results[1].Err == nil || results[1].Result != nil {
		t.Error("failing experiment not captured as error")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("healthy experiments affected by the failure")
	}

	rep := runner.Report(results)
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if len(rep.Experiments) != 3 || len(rep.Manifest.Experiments) != 3 {
		t.Fatalf("report sizes: %d experiments, %d manifest entries", len(rep.Experiments), len(rep.Manifest.Experiments))
	}
	if rep.Experiments[1].Error == "" || rep.Manifest.Experiments[1].Error == "" {
		t.Error("experiment error missing from report/manifest")
	}
	if got := rep.Manifest.Experiments[2].Cells; got != 4 {
		t.Errorf("manifest cell count = %d, want 4", got)
	}
	if rep.Manifest.Experiments[0].Passed != 1 || rep.Manifest.Experiments[0].Checks != 1 {
		t.Errorf("manifest check counts = %+v", rep.Manifest.Experiments[0])
	}
}

// TestRunnerDeterministicAcrossWorkers: the same experiments produce
// cell-identical reports at any concurrency.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"tab1.1", "fig5.8", "abl.lambda"}
	var exps []Experiment
	for _, id := range ids {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		exps = append(exps, e)
	}
	cfg := DefaultConfig()
	var reports []*report.Report
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		runner := Runner{Config: c}
		reports = append(reports, runner.Report(runner.Run(exps)))
	}
	for i := range reports[0].Experiments {
		a, b := reports[0].Experiments[i], reports[1].Experiments[i]
		if a.Error != "" || b.Error != "" {
			t.Fatalf("%s errored: %q / %q", a.ID, a.Error, b.Error)
		}
		if len(a.Cells) != len(b.Cells) {
			t.Fatalf("%s: cell counts differ: %d vs %d", a.ID, len(a.Cells), len(b.Cells))
		}
		for j := range a.Cells {
			if a.Cells[j] != b.Cells[j] {
				t.Errorf("%s: cell %d differs across worker counts: %+v vs %+v", a.ID, j, a.Cells[j], b.Cells[j])
			}
		}
	}
}

// TestReportIsPureFunctionOfConfig: a report is a pure function of (scale,
// seed). The shared seed-1 pass — three experiments in flight at
// Workers 3 — and a fresh inline pass at Workers 1, run after emptying the
// assignment and point caches so it recomputes everything, must assemble
// and encode every non-slow experiment to the same bytes once the
// manifest's workers field is blanked: no clock, core count or scheduling
// order reaches a cell, a check or the manifest.
func TestReportIsPureFunctionOfConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("a second pass over every non-slow experiment; run without -short")
	}
	pass := seed1Pass()
	var exps []Experiment
	var shared []RunResult
	for _, e := range All() {
		if !goldenSlow[e.ID] {
			exps = append(exps, e)
			shared = append(shared, pass[e.ID])
		}
	}
	resetCaches()
	inline := seed1Runner(1)
	encode := func(r Runner, results []RunResult) []byte {
		rep := r.Report(results)
		for _, e := range rep.Experiments {
			if e.Error != "" {
				t.Fatalf("workers=%d: %s errored: %s", r.Config.Workers, e.ID, e.Error)
			}
		}
		rep.Manifest.Config.Workers = 0
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(inline, inline.Run(exps)), encode(seed1Runner(seed1Workers), shared)
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("reports differ at line %d:\nworkers=1: %s\nworkers=%d: %s", i+1, al[i], seed1Workers, bl[i])
		}
	}
	t.Fatalf("reports differ in length: %d vs %d lines", len(al), len(bl))
}
