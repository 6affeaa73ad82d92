package bench

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphpart/internal/report"
)

// updateGolden regenerates testdata/golden/*.txt from the current renders.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment renders")

// goldenSlow lists the multi-second engine sweeps. Under -short the shared
// seed-1 pass leaves them out, so only full runs render and compare them;
// their committed verdicts are checked either way.
var goldenSlow = map[string]bool{
	"fig5.3":     true,
	"fig5.4":     true,
	"fig5.5":     true,
	"fig8.4":     true,
	"fig5.9":     true,
	"tab5.1":     true,
	"adv.regret": true,
	"dyn.drift":  true,
}

// TestGoldenTableRenders pins every experiment's plain-text table render
// byte-for-byte. The refactor from stringified rows to typed cell emission
// must not change a single rendered byte: the paper reproduction is the
// plain render, and this is the proof it is untouched. Every table has a
// row, and every render names its experiment.
func TestGoldenTableRenders(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && goldenSlow[e.ID] {
				t.Skipf("%s takes multiple seconds; run without -short", e.ID)
			}
			res := seed1Result(t, e.ID)
			if len(res.rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(e.ID)) {
				t.Errorf("%s: rendered output missing experiment id", e.ID)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: missing golden (run with -update): %v", e.ID, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: render differs from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, path, buf.Bytes(), want)
			}
		})
	}
}

// plottedY names the y column of each RF-correlation figure: the metric the
// paper plots against replication factor.
var plottedY = []struct{ id, metric string }{
	{"fig5.3", "net-in-GB/machine"},
	{"fig5.4", "compute-seconds"},
	{"fig5.5", "peak-mem-GB/machine"},
	{"fig8.3", "net-in-GB"},
}

// TestPlottedValuesRenderDistinct: the table is the figure's only human
// view, so within one panel (one application) two points whose y values
// differ by 0.1% or more must print different y strings.
func TestPlottedValuesRenderDistinct(t *testing.T) {
	for _, p := range plottedY {
		id, metric := p.id, p.metric
		t.Run(id, func(t *testing.T) {
			if testing.Short() && goldenSlow[id] {
				t.Skipf("%s takes multiple seconds; run without -short", id)
			}
			res := seed1Result(t, id)
			col := slices.Index(res.columns, metric)
			if col < 0 {
				t.Fatalf("%s: no %s column in %v", id, metric, res.columns)
			}
			type plotted struct {
				strategy, shown string
				y               float64
			}
			panels := map[string][]plotted{}
			for _, row := range res.rows {
				i := slices.IndexFunc(res.Cells, func(c report.Cell) bool {
					return c.Dims == row.dims && c.Metric == metric
				})
				if i < 0 {
					t.Fatalf("%s: row %v has no %s cell", id, row.cols, metric)
				}
				panels[row.dims.App] = append(panels[row.dims.App],
					plotted{row.dims.Strategy, row.cols[col], res.Cells[i].Value})
			}
			for app, pts := range panels {
				for i, a := range pts {
					for _, b := range pts[i+1:] {
						if math.Abs(a.y-b.y) >= 1e-3*math.Min(math.Abs(a.y), math.Abs(b.y)) && a.shown == b.shown {
							t.Errorf("%s %s: %s (%g) and %s (%g) both render %q",
								id, app, a.strategy, a.y, b.strategy, b.y, a.shown)
						}
					}
				}
			}
		})
	}
}
