package report

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report")

// sampleReport is a small fixed report exercising every schema field.
func sampleReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "benchrunner",
		Manifest: Manifest{
			Config: ConfigInfo{Scale: 1, Seed: 1, HybridThreshold: 30, Workers: 2},
			Experiments: []ManifestEntry{
				{ID: "fig5.6", Cells: 2, Checks: 1, Passed: 1},
				{ID: "tab5.1", Error: "synthetic failure"},
			},
		},
		Experiments: []Experiment{
			{
				ID: "fig5.6", Title: "Replication factors", Paper: "Random always highest",
				Cells: []Cell{
					{Dims: Dims{Dataset: "road-ca", Strategy: "HDRF", Engine: "PowerGraph", Cluster: "EC2-25", Parts: 25},
						Metric: "replication-factor", Value: 1.234, Unit: "ratio"},
					{Dims: Dims{Dataset: "road-ca", Strategy: "Random", Engine: "PowerGraph", Cluster: "EC2-25", Parts: 25},
						Metric: "replication-factor", Value: 1.987, Unit: "ratio"},
				},
				Checks: []Check{
					{Claim: "Random has the highest RF", Observed: "Random 1.987 vs HDRF 1.234 ✓", Pass: true},
				},
			},
			{ID: "tab5.1", Title: "Grid vs HDRF", Cells: []Cell{}, Error: "synthetic failure"},
		},
	}
}

// TestGoldenSchema pins the JSON layout: consumers (CI diffs, the
// BENCH_*.json trajectory, external tooling) parse this exact shape.
func TestGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
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
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoded report differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleReport()
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.String()
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip mutated the report:\norig %+v\ngot  %+v", orig, got)
	}
	// Reports written before wall-clock left the schema carry seconds on
	// every experiment and manifest entry and a manifest total, and those
	// written while benchrunner had a cell filter carry a manifest filter;
	// they must still read, to the same report, at the same SchemaVersion,
	// for partitiond's advisor and decide -report.
	legacy := strings.ReplaceAll(encoded, `"id":`, `"seconds": 0.25, "id":`)
	legacy = strings.Replace(legacy, `"config":`, `"totalSeconds": 0.25, "filter": "dataset=road", "config":`, 1)
	if legacy == encoded {
		t.Fatal("legacy fixture was not rewritten")
	}
	got, err = Decode(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy report with seconds and filter fields rejected: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("legacy seconds and filter fields changed the decoded report:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestValidateRejectsBadReports(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"wrong version", func(r *Report) { r.SchemaVersion = 99 }, "schema version"},
		{"empty id", func(r *Report) { r.Experiments[0].ID = "" }, "empty id"},
		{"duplicate id", func(r *Report) { r.Experiments[1].ID = "fig5.6" }, "duplicate"},
		{"empty metric", func(r *Report) { r.Experiments[0].Cells[0].Metric = "" }, "empty metric"},
		{"NaN value", func(r *Report) { r.Experiments[0].Cells[0].Value = math.NaN() }, "non-finite"},
		{"empty claim", func(r *Report) { r.Experiments[0].Checks[0].Claim = "" }, "empty claim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleReport()
			tc.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad report")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
	if err := sampleReport().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestDimsKeyAndField(t *testing.T) {
	d := Dims{Dataset: "road-ca", Strategy: "HDRF", Parts: 25}
	if got := d.Key(); got != "dataset=road-ca|strategy=HDRF|parts=25" {
		t.Errorf("Key = %q", got)
	}
	c := Cell{Dims: d, Metric: "rf"}
	if got := c.Key(); got != "dataset=road-ca|strategy=HDRF|parts=25|metric=rf" {
		t.Errorf("cell Key = %q", got)
	}
	if got := (Cell{Metric: "rf"}).Key(); got != "metric=rf" {
		t.Errorf("dimensionless cell Key = %q", got)
	}
}
