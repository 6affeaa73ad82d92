package report

import "testing"

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("dataset=road, strategy=HDRF,dataset=twitter")
	if err != nil {
		t.Fatal(err)
	}
	if len(f["dataset"]) != 2 || len(f["strategy"]) != 1 {
		t.Fatalf("filter = %+v", f)
	}
	if f.String() != "dataset=road,dataset=twitter,strategy=HDRF" {
		t.Errorf("String = %q", f.String())
	}
	if nilF, err := ParseFilter("  "); err != nil || nilF != nil {
		t.Errorf("blank filter = %+v, %v", nilF, err)
	}
	for _, bad := range []string{"dataset", "=x", "dataset=", "bogus=1"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) accepted", bad)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	f, err := ParseFilter("dataset=road,strategy=hdrf")
	if err != nil {
		t.Fatal(err)
	}
	hit := Cell{Dims: Dims{Dataset: "road-usa", Strategy: "HDRF"}, Metric: "rf"}
	if !f.Match(hit) {
		t.Error("substring + case-insensitive match failed")
	}
	for _, miss := range []Cell{
		{Dims: Dims{Dataset: "twitter", Strategy: "HDRF"}}, // wrong dataset
		{Dims: Dims{Dataset: "road-ca", Strategy: "Grid"}}, // wrong strategy
		{Dims: Dims{Strategy: "HDRF"}},                     // dataset absent
	} {
		if f.Match(miss) {
			t.Errorf("filter matched %+v", miss)
		}
	}
	var nilF Filter
	if !nilF.Match(hit) {
		t.Error("nil filter must match everything")
	}
	mf, _ := ParseFilter("metric=rf")
	if !mf.Match(hit) || mf.Match(Cell{Metric: "balance"}) {
		t.Error("metric filter misbehaved")
	}
	// parts is numeric: exact match only, no substring semantics.
	pf, _ := ParseFilter("parts=2")
	if pf.Match(Cell{Dims: Dims{Parts: 25}}) {
		t.Error("parts=2 matched parts=25")
	}
	if !pf.Match(Cell{Dims: Dims{Parts: 2}}) {
		t.Error("parts=2 missed parts=2")
	}
}
