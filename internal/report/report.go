// Package report defines the machine-readable result schema shared by the
// experiment harness (internal/bench), cmd/benchrunner and cmd/partition:
// typed measurement cells keyed by the paper's dimensions (dataset ×
// strategy × app × engine), structured pass/fail checks, and a versioned
// JSON report with a run manifest. The report holds every cell and check
// of a run; the plain tables are drawn from the same records.
// Two reports of one config are compared byte for byte: a report is a pure
// function of its config, so `diff` of two -json files is the A/B.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// SchemaVersion identifies the report layout. Bump it on incompatible
// changes; Decode rejects reports from other versions.
const SchemaVersion = 1

// Dims identifies one cell of the paper's measurement matrix. Every field
// is optional: an experiment fills in the dimensions it varies. Parts is
// the partition count; Variant labels an ablation knob (λ, threshold,
// loader count, …) that is not one of the paper's primary dimensions.
type Dims struct {
	Dataset  string `json:"dataset,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	App      string `json:"app,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Cluster  string `json:"cluster,omitempty"`
	Parts    int    `json:"parts,omitempty"`
	Variant  string `json:"variant,omitempty"`
}

// Key returns the canonical string form of d, used to match cells across
// reports.
func (d Dims) Key() string {
	var sb strings.Builder
	for _, kv := range [...]struct{ k, v string }{
		{"dataset", d.Dataset},
		{"strategy", d.Strategy},
		{"app", d.App},
		{"engine", d.Engine},
		{"cluster", d.Cluster},
		{"variant", d.Variant},
	} {
		if kv.v != "" {
			fmt.Fprintf(&sb, "%s=%s|", kv.k, kv.v)
		}
	}
	if d.Parts != 0 {
		fmt.Fprintf(&sb, "parts=%d|", d.Parts)
	}
	return strings.TrimSuffix(sb.String(), "|")
}

// Cell is one typed measurement: a metric value at one point of the
// dimension matrix.
type Cell struct {
	Dims   Dims    `json:"dims"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit,omitempty"`
}

// Key identifies the cell for cross-report matching: dims plus metric.
func (c Cell) Key() string {
	k := c.Dims.Key()
	if k == "" {
		return "metric=" + c.Metric
	}
	return k + "|metric=" + c.Metric
}

// Check is a structured verdict: one qualitative claim from the paper,
// the measured evidence, and whether this run reproduced it.
type Check struct {
	Claim    string `json:"claim"`
	Observed string `json:"observed,omitempty"`
	Pass     bool   `json:"pass"`
}

// Experiment is one experiment's typed output in a report.
type Experiment struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Paper  string  `json:"paper,omitempty"`
	Cells  []Cell  `json:"cells"`
	Checks []Check `json:"checks,omitempty"`
	// Error is set when the experiment failed to run; Cells is then empty.
	Error string `json:"error,omitempty"`
}

// ConfigInfo records the bench.Config a report was produced with.
type ConfigInfo struct {
	Scale           int    `json:"scale"`
	Seed            uint64 `json:"seed"`
	HybridThreshold int    `json:"hybridThreshold"`
	Workers         int    `json:"workers"`
}

// ManifestEntry summarizes one experiment in the manifest.
type ManifestEntry struct {
	ID     string `json:"id"`
	Cells  int    `json:"cells"`
	Checks int    `json:"checks"`
	Passed int    `json:"passed"`
	Error  string `json:"error,omitempty"`
}

// Manifest describes the run that produced a report. It holds no wall-clock
// field: a report is a pure function of its config and experiment list
// (reports written before that carried seconds, and some a cell filter;
// Decode ignores both).
type Manifest struct {
	Config      ConfigInfo      `json:"config"`
	Experiments []ManifestEntry `json:"experiments"`
}

// Report is the versioned top-level JSON document.
type Report struct {
	SchemaVersion int          `json:"schemaVersion"`
	Tool          string       `json:"tool"`
	Manifest      Manifest     `json:"manifest"`
	Experiments   []Experiment `json:"experiments"`
}

// WriteFile streams emit to the named file — or to stdout for "-" — and
// surfaces flush/close errors so a failed write never leaves truncated
// output behind a zero exit.
func WriteFile(path string, stdout io.Writer, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads and validates a report.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the schema invariants: a supported version, non-empty
// experiment and metric names, and finite values.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("report: schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	seen := map[string]bool{}
	for _, e := range r.Experiments {
		if e.ID == "" {
			return fmt.Errorf("report: experiment with empty id")
		}
		if seen[e.ID] {
			return fmt.Errorf("report: duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		for _, c := range e.Cells {
			if c.Metric == "" {
				return fmt.Errorf("report: %s: cell with empty metric (%s)", e.ID, c.Dims.Key())
			}
			if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
				return fmt.Errorf("report: %s: non-finite value for %s", e.ID, c.Key())
			}
		}
		for _, ch := range e.Checks {
			if ch.Claim == "" {
				return fmt.Errorf("report: %s: check with empty claim", e.ID)
			}
		}
	}
	return nil
}
