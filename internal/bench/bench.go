// Package bench contains the experiment harness: one row of the
// experiments table per table and figure in the paper's evaluation chapters,
// each regenerating the corresponding rows/series on the simulated cluster.
//
// Experiments produce a typed Result — measurement Cells keyed by the
// paper's dimensions plus structured Checks — and both outputs, the plain
// table and the JSON report, derive from it.
//
// The paper's evaluation is one matrix — strategy × graph × cluster ×
// application — run on three systems, and the experiments read it through
// one core. The all-strategies tables (figs 5.6/5.7, 6.4/6.5, 8.1/8.2 and
// adv.regret's training sweep) are each a sweepSpec: sweepSpec.run emits
// the rows and returns the measured grid, and the experiment's checks read
// that grid, where reading an unmeasured point is an error rather than a
// zero. Every figure that runs an application on PowerGraph, PowerLyra or
// GraphX goes through measure, which runs the one app table's entry and
// returns one point (replication factor, and modeled ingress with engine
// stats, or GraphX's stats); only fig9.4's executor-memory sweep calls the
// table uncached. Assignments and points are cached once per key for the
// life of the process (par.OnceMap), so figures that share a point —
// tab5.1, fig5.9 and adv.regret re-read the fig5.3–5.5 sweep, tab7.1
// re-reads fig7.1's, fig9.3 and adv.regret re-read figs 9.1/9.2's —
// simulate it once, under the concurrent Runner too. Figs 5.9 and 9.3 and
// adv.regret grade the decision trees over one case table.
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
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/graph"
	"graphpart/internal/par"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

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
		HybridThreshold: partition.DefaultHybridThreshold,
		Workers:         c.Workers,
	}
}

// engineOpts is the base engine.Options every experiment starts from; app
// specs fill in their own iteration caps.
func (c Config) engineOpts() engine.Options {
	return engine.Options{Workers: c.Workers}
}

// graphxConfig is the base graphx.Config every GraphX experiment starts
// from; building it here (rather than at each call site) makes forgetting
// Workers impossible.
func (c Config) graphxConfig(cc cluster.Config, iterations int) graphx.Config {
	return graphx.Config{Cluster: cc, Iterations: iterations, Workers: c.Workers}
}

// --- typed results ----------------------------------------------------

// Result is the typed outcome of one experiment run: measurement cells and
// structured checks first, presentation (column layout, note text)
// alongside so the table and the report derive from one record.
type Result struct {
	ID    string
	Title string
	// Cells are the typed measurements, in emission order.
	Cells []report.Cell
	// Checks are the structured verdicts, in emission order.
	Checks []report.Check

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

// --- rendering --------------------------------------------------------

// Render writes the result's plain-text table: title, aligned columns and
// rows, then the notes.
func (r *Result) Render(w io.Writer) error {
	widths := make([]int, len(r.columns))
	for i, c := range r.columns {
		widths[i] = len(c)
	}
	for _, row := range r.rows {
		for i, cell := range row.cols {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s — %s\n", r.ID, r.Title); err != nil {
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
	fmt.Fprintln(w, line(r.columns))
	// Ruler width = column widths plus the two-space separators between
	// them.
	total := 2 * (len(r.columns) - 1)
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range r.rows {
		fmt.Fprintln(w, line(row.cols))
	}
	for _, n := range r.notes {
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

// experiments is the registry: every experiment, sorted by ID.
var experiments = []Experiment{
	ablEngine(),
	ablHDRFLambda(),
	ablLoaders(),
	ablLocality(),
	ablHybridThreshold(),
	advRegret(),
	dynCost(),
	dynDrift(),
	dynRebalance(),
	famCompare(),
	correlationTable("fig5.3",
		"Incoming network IO vs. replication factor (PowerGraph, EC2-25, UK-web)",
		"net-in-GB/machine", "GB", func(p *point) float64 { return p.stats.AvgNetInGB }),
	correlationTable("fig5.4",
		"Computation time vs. replication factor (PowerGraph, EC2-25, UK-web)",
		"compute-seconds", "s", func(p *point) float64 { return p.stats.ComputeSeconds }),
	correlationTable("fig5.5",
		"Peak memory vs. replication factor (PowerGraph, EC2-25, UK-web)",
		"peak-mem-GB/machine", "GB", (*point).peakMemGB),
	fig56(),
	fig57(),
	fig58(),
	fig59(),
	fig61(),
	fig62(),
	fig63(),
	fig64(),
	fig65(),
	fig66(),
	fig71(),
	fig81(),
	fig82(),
	fig83(),
	fig84(),
	fig91(),
	fig92(),
	fig93(),
	fig94(),
	loadFormats(),
	tab11(),
	tab51(),
	tab71(),
}

// All returns every experiment sorted by ID, in a slice the caller owns.
func All() []Experiment { return slices.Clone(experiments) }

// Get looks an experiment up by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

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
	return partition.New(name, partition.Options{})
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
