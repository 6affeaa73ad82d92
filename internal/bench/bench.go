// Package bench contains the experiment harness: one registered experiment
// per table and figure in the paper's evaluation chapters, each regenerating
// the corresponding rows/series on the simulated cluster.
//
// Experiments produce a typed Result — measurement Cells keyed by the
// paper's dimensions plus structured Checks — and every rendering (the
// plain tables, markdown, CSV, the JSON report) is a view derived from it.
//
// The paper's evaluation is one matrix — strategy × graph × cluster ×
// application — and the vertex-cut experiments read it through one core.
// The all-strategies tables (figs 5.6/5.7, 6.4/6.5, 8.1/8.2 and
// adv.regret's training sweep) are each a sweepSpec: sweepSpec.run emits
// the rows and returns the measured grid, and the experiment's checks read
// that grid, where reading an unmeasured point is an error rather than a
// zero. Every figure that runs an application goes through measure, which
// returns one point (replication factor, modeled ingress, engine stats).
// Assignments and points are cached once per key for the life of the
// process (par.OnceMap), so figures that share a point — tab5.1, fig5.9 and
// adv.regret re-read the fig5.3–5.5 sweep — simulate it once, under the
// concurrent Runner too.
//
// Run them via cmd/benchrunner. Every experiment is deterministic.
//
// docs/EXPERIMENTS.md is a generated catalog of this registry, rendered from
// the committed baseline's cells and checks. After adding or changing
// experiments, regenerate the baseline first (from the repository root:
// go run ./cmd/benchrunner -all -json BENCH_seed1.json), then the catalog
// (gendocs' TestCatalogIsCurrent fails when it is stale).
//
//go:generate go run ./gendocs -o ../../docs/EXPERIMENTS.md
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/graph"
	"graphpart/internal/par"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// hybridThreshold is the high-degree cutoff used by Hybrid/H-Ginger and the
// PowerLyra engine. The scaled datasets use 30 (the paper's 100 assumes
// million-vertex graphs).
const hybridThreshold = 30

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies dataset sizes (1 = test-sized).
	Scale int
	// Seed for all partitioners.
	Seed uint64
	// Workers bounds the engines' per-superstep worker goroutines, the
	// partitioners' ingress workers, and the Runner's concurrent
	// experiments; ≤0 means GOMAXPROCS. Results are byte-identical for
	// every value — parallelism only changes wall-clock, which is what
	// makes -scale ≥2 runs tractable.
	Workers int
}

// DefaultConfig returns the configuration used by tests and the default
// benchrunner invocation.
func DefaultConfig() Config {
	return Config{Scale: 1, Seed: 1}
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

// Info returns the manifest form of the configuration.
func (c Config) Info() report.ConfigInfo {
	return report.ConfigInfo{
		Scale:           c.scale(),
		Seed:            c.Seed,
		HybridThreshold: hybridThreshold,
		Workers:         c.Workers,
	}
}

// engineOpts is the base engine.Options every experiment starts from; app
// specs fill in their own iteration caps.
func (c Config) engineOpts() engine.Options {
	return engine.Options{HighDegreeThreshold: hybridThreshold, Workers: c.Workers}
}

// graphxConfig is the base graphx.Config every GraphX experiment starts
// from; building it here (rather than at each call site) makes forgetting
// Workers impossible.
func (c Config) graphxConfig(cc cluster.Config, iterations int) graphx.Config {
	return graphx.Config{Cluster: cc, Iterations: iterations, Workers: c.Workers}
}

// --- typed results ----------------------------------------------------

// Result is the typed outcome of one experiment run: measurement cells and
// structured checks first, presentation (column layout, note text, ASCII
// figure) alongside so every rendering derives from the same record.
type Result struct {
	ID    string
	Title string
	// Cells are the typed measurements, in emission order.
	Cells []report.Cell
	// Checks are the structured verdicts, in emission order.
	Checks []report.Check
	// Figure optionally carries an ASCII rendering of the paper's figure
	// (scatter with trend line, or cumulative curves).
	Figure string

	columns []string
	rows    []*Row
	notes   []string
}

// NewResult starts a result with the table's column headers.
func NewResult(id, title string, columns ...string) *Result {
	return &Result{ID: id, Title: title, columns: columns}
}

// Row opens a presentation row whose metric cells inherit d. Columns are
// appended through the returned builder.
func (r *Result) Row(d report.Dims) *Row {
	row := &Row{res: r, dims: d}
	r.rows = append(r.rows, row)
	return row
}

// Cell appends a typed cell with no presentation column — for tables whose
// rendered rows aggregate the underlying measurements (rankings, trend
// fits) rather than listing them.
func (r *Result) Cell(d report.Dims, metric string, v float64, unit string) {
	r.Cells = append(r.Cells, report.Cell{Dims: d, Metric: metric, Value: v, Unit: unit})
}

// Notef appends an informational note (no verdict).
func (r *Result) Notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Checkf appends a structured check and its table note. The note renders
// exactly as fmt.Sprintf(format, args...) — call sites place the ✓/✗ mark
// (or a longer verdict string) themselves, typically via Mark(pass). The
// rendered note doubles as the check's Observed evidence.
func (r *Result) Checkf(pass bool, claim, format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	r.Checks = append(r.Checks, report.Check{Claim: claim, Observed: note, Pass: pass})
	r.notes = append(r.notes, note)
}

// Check appends a structured check without a table note — for verdicts the
// rendered table only mentions when they fail. Recording the passing case
// keeps the check in the report, where TestCellsMatchCommittedBaseline holds
// its verdict to BENCH_seed1.json.
func (r *Result) Check(pass bool, claim, observed string) {
	r.Checks = append(r.Checks, report.Check{Claim: claim, Observed: observed, Pass: pass})
}

// Mark renders a pass/fail verdict the way the paper tables do.
func Mark(pass bool) string {
	if pass {
		return "✓"
	}
	return "✗"
}

// Row builds one presentation row and the typed cells behind it.
type Row struct {
	res  *Result
	dims report.Dims
	cols []string
}

// Col appends presentation-only columns (dimension labels, qualitative
// text); they carry no typed value.
func (w *Row) Col(cells ...string) *Row {
	w.cols = append(w.cols, cells...)
	return w
}

// Colf appends one formatted presentation-only column.
func (w *Row) Colf(format string, args ...any) *Row {
	w.cols = append(w.cols, fmt.Sprintf(format, args...))
	return w
}

// Metric appends a typed cell under the row's dims and renders it as the
// next column with prec decimal places.
func (w *Row) Metric(metric string, v float64, unit string, prec int) *Row {
	return w.MetricAt(w.dims, metric, v, unit, prec)
}

// MetricAt is Metric with explicit dims, for rows whose columns measure
// different points of the matrix (e.g. two strategies side by side).
func (w *Row) MetricAt(d report.Dims, metric string, v float64, unit string, prec int) *Row {
	w.res.Cell(d, metric, v, unit)
	w.cols = append(w.cols, strconv.FormatFloat(v, 'f', prec, 64))
	return w
}

// Value appends a typed cell under the row's dims without a presentation
// column.
func (w *Row) Value(metric string, v float64, unit string) *Row {
	w.res.Cell(w.dims, metric, v, unit)
	return w
}

// --- reporters --------------------------------------------------------

// Table is the plain-text presentation of a Result (the paper artifact
// view). It is derived — see Result.Table — never built by experiments.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the experiment's own verdicts: the qualitative shape
	// the paper reports and whether this run reproduced it.
	Notes []string
	// Figure optionally carries an ASCII rendering of the paper's figure
	// (scatter with trend line, or cumulative curves).
	Figure string
}

// Table derives the presentation table from the result.
func (r *Result) Table() *Table {
	t := &Table{ID: r.ID, Title: r.Title, Columns: r.columns, Figure: r.Figure}
	for _, row := range r.rows {
		t.Rows = append(t.Rows, row.cols)
	}
	t.Notes = append(t.Notes, r.notes...)
	return t
}

// Render writes the plain-text table view of the result.
func (r *Result) Render(w io.Writer) error { return r.Table().Render(w) }

// CellsCSV writes one CSV row per cell in the CSVHeader layout, tagged
// with the owning experiment id (one line per cell; the id column makes
// multi-experiment CSVs concatenable). The benchrunner -csv reporter
// feeds it the report's filtered cells.
func CellsCSV(w *csv.Writer, id string, cells []report.Cell) error {
	for _, c := range cells {
		rec := []string{
			id, c.Dims.Dataset, c.Dims.Strategy, c.Dims.App, c.Dims.Engine,
			c.Dims.Cluster, c.Dims.Variant, "", c.Metric,
			strconv.FormatFloat(c.Value, 'g', -1, 64), c.Unit,
		}
		if c.Dims.Parts != 0 {
			rec[7] = strconv.Itoa(c.Dims.Parts)
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// CSVHeader is the column header matching RenderCSV's rows.
var CSVHeader = []string{"experiment", "dataset", "strategy", "app", "engine", "cluster", "variant", "parts", "metric", "value", "unit"}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return strings.TrimRight(sb.String(), " ")
	}
	fmt.Fprintln(w, line(t.Columns))
	// Ruler width = column widths plus the two-space separators between
	// them.
	total := 2 * (len(t.Columns) - 1)
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	if t.Figure != "" {
		fmt.Fprintln(w)
		fmt.Fprint(w, t.Figure)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// --- registry ---------------------------------------------------------

// Experiment regenerates one table or figure from the paper.
type Experiment struct {
	ID    string // e.g. "fig5.3", "tab5.1"
	Title string
	// Paper summarizes the shape the paper reports for this artifact.
	Paper string
	Run   func(Config) (*Result, error)
}

// registrySet is a name-keyed experiment index: O(1) lookups, one sort per
// registration epoch, and duplicate-ID detection at registration time.
type registrySet struct {
	mu     sync.Mutex
	byID   map[string]Experiment
	site   map[string]string
	sorted []Experiment // built on first all(), invalidated by add
}

func newRegistrySet() *registrySet {
	return &registrySet{byID: map[string]Experiment{}, site: map[string]string{}}
}

// add registers an experiment. Duplicate IDs are a programming error: the
// panic names both registrants so the offending init is obvious.
func (rs *registrySet) add(e Experiment, site string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if prev, ok := rs.byID[e.ID]; ok {
		panic(fmt.Sprintf("bench: duplicate experiment ID %q: %q registered at %s, %q at %s",
			e.ID, prev.Title, rs.site[e.ID], e.Title, site))
	}
	rs.byID[e.ID] = e
	rs.site[e.ID] = site
	rs.sorted = nil
}

func (rs *registrySet) all() []Experiment {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.sorted == nil {
		rs.sorted = make([]Experiment, 0, len(rs.byID))
		for _, e := range rs.byID {
			rs.sorted = append(rs.sorted, e)
		}
		sort.Slice(rs.sorted, func(i, j int) bool { return rs.sorted[i].ID < rs.sorted[j].ID })
	}
	out := make([]Experiment, len(rs.sorted))
	copy(out, rs.sorted)
	return out
}

func (rs *registrySet) get(id string) (Experiment, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.byID[id]
	return e, ok
}

var reg = newRegistrySet()

// register adds an experiment to the package registry at init time.
func register(e Experiment) {
	site := "unknown"
	if _, file, line, ok := runtime.Caller(1); ok {
		site = fmt.Sprintf("%s:%d", filepath.Base(file), line)
	}
	reg.add(e, site)
}

// All returns every registered experiment sorted by ID.
func All() []Experiment { return reg.all() }

// Get looks an experiment up by ID in the registry map.
func Get(id string) (Experiment, bool) { return reg.get(id) }

// asgKey is everything an assignment depends on. Config.Workers is left
// out on purpose: placement is identical at every worker count.
type asgKey struct {
	dataset  string
	scale    int
	strategy string
	parts    int
	seed     uint64
}

func (c Config) asgKey(dataset, strategy string, parts int) asgKey {
	return asgKey{dataset, c.scale(), strategy, parts, c.Seed}
}

// assignments and points (apps.go) are the bench's once-per-key caches.
// Under the concurrent Runner, experiments racing for one key share one
// computation instead of each recomputing it (a classic cache stampede — the
// uk-web partitionings and engine runs cost seconds each). Values are
// shared: callers must not mutate them. The experiments carry no context,
// so no wait is ever abandoned.
var assignments par.OnceMap[asgKey, *partition.Assignment]

// assignment partitions a named dataset with a named strategy, caching the
// result (experiments share many assignments). It runs the parallel
// streaming pipeline, which is placement-identical to the sequential path
// for every strategy.
func assignment(cfg Config, dataset, strategy string, parts int) (*partition.Assignment, error) {
	return assignments.Get(context.TODO(), cfg.asgKey(dataset, strategy, parts), func() (*partition.Assignment, error) {
		g, err := loadGraph(cfg, dataset)
		if err != nil {
			return nil, err
		}
		s, err := strategyFor(strategy)
		if err != nil {
			return nil, err
		}
		return partition.ParallelPartition(g, s, parts, cfg.Seed, cfg.Workers)
	})
}

// ingest is the ingress half of every measured point: the cached
// assignment of dataset under strategy at cc's partition count, and its
// modeled ingress on cc.
func ingest(cfg Config, dataset, strategy string, cc cluster.Config) (*partition.Assignment, cluster.IngressStats, error) {
	a, err := assignment(cfg, dataset, strategy, cc.NumParts())
	if err != nil {
		return nil, cluster.IngressStats{}, err
	}
	s, err := strategyFor(strategy)
	if err != nil {
		return nil, cluster.IngressStats{}, err
	}
	return a, cluster.Ingress(a, s, cc, cluster.DefaultModel()), nil
}

// strategyFor constructs the named strategy the way every assignment and
// ingress model in this package does.
func strategyFor(name string) (partition.Strategy, error) {
	return partition.New(name, partition.Options{HybridThreshold: hybridThreshold})
}

// loadGraph is a thin wrapper over datasets.Load at the config's scale.
func loadGraph(cfg Config, name string) (*graph.Graph, error) {
	return datasets.Load(name, cfg.scale())
}

// sortedKeys returns m's keys in ascending order: map iteration order is
// deliberately randomized by the runtime, so every loop that feeds report
// cells, notes, or float accumulations iterates via this helper instead.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
