package graph

import (
	"math"
	"testing"
)

// syntheticPowerLawHist builds a histogram exactly on a power law:
// count(d) = C·d^-alpha.
func syntheticPowerLawHist(c float64, alpha float64, maxD int) map[int]int {
	h := map[int]int{}
	for d := 1; d <= maxD; d++ {
		n := int(c * math.Pow(float64(d), -alpha))
		if n > 0 {
			h[d] = n
		}
	}
	return h
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	for _, alpha := range []float64{1.5, 2.0, 2.5} {
		h := syntheticPowerLawHist(1e6, alpha, 1000)
		fit := FitPowerLaw(h)
		if math.Abs(fit.Alpha-alpha) > 0.1 {
			t.Errorf("alpha=%v: fitted %v", alpha, fit.Alpha)
		}
		if fit.R2 < 0.98 {
			t.Errorf("alpha=%v: R² = %v, want ≥0.98", alpha, fit.R2)
		}
		if fit.LowDegreeRatio < 0.5 || fit.LowDegreeRatio > 2 {
			t.Errorf("alpha=%v: LowDegreeRatio = %v, want ≈1", alpha, fit.LowDegreeRatio)
		}
	}
}

func TestFitPowerLawLowDegreeDeficit(t *testing.T) {
	// A heavy-tailed histogram with the low-degree counts removed (as in
	// Twitter/LiveJournal, Fig 5.8a/b) must show a small LowDegreeRatio.
	h := syntheticPowerLawHist(1e6, 2.0, 1000)
	h[1] = 10 // nearly no degree-1 vertices
	h[2] = 10
	fit := FitPowerLaw(h)
	if fit.LowDegreeRatio > 0.2 {
		t.Errorf("LowDegreeRatio = %v, want < 0.2 for deficit histogram", fit.LowDegreeRatio)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if fit := FitPowerLaw(nil); fit.Alpha != 0 {
		t.Errorf("empty histogram: alpha = %v, want 0", fit.Alpha)
	}
	if fit := FitPowerLaw(map[int]int{5: 10}); fit.Alpha != 0 {
		t.Errorf("single-point histogram: alpha = %v, want 0", fit.Alpha)
	}
	// Equal counts lie on a flat line: metrics.Fit's zero-variance rule
	// makes that an exact fit (R² = 1), not the R² = 0 of no fit at all.
	if fit := FitPowerLaw(map[int]int{1: 1, 2: 1, 7: 1}); fit.R2 != 1 || fit.Alpha != 0 {
		t.Errorf("equal-count histogram: alpha = %v, R² = %v, want 0 and 1", fit.Alpha, fit.R2)
	}
}

func TestPredictInverseOfFit(t *testing.T) {
	h := syntheticPowerLawHist(1e5, 2.0, 500)
	fit := FitPowerLaw(h)
	// Predictions should be within a factor of 2 of the histogram across
	// the support.
	for _, d := range []int{1, 10, 100} {
		pred := fit.Predict(d)
		actual := float64(h[d])
		if pred < actual/2 || pred > actual*2 {
			t.Errorf("Predict(%d) = %v, actual %v", d, pred, actual)
		}
	}
	if fit.Predict(0) != 0 {
		t.Error("Predict(0) should be 0")
	}
}

func TestClassifyLowDegree(t *testing.T) {
	// A ring graph: every vertex has degree 2.
	var edges []Edge
	const n = 1000
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{VertexID(i), VertexID((i + 1) % n)})
	}
	c := Classify(FromEdges("ring", edges))
	if c.Class != LowDegree {
		t.Errorf("ring classified as %v, want low-degree", c.Class)
	}
}

// TestClassifyGini: a 3-star plus one isolated vertex has sorted degrees
// 0,1,1,1,3, so G = Σ(2i−n−1)·d_i / (n·Σd) = 12/30; the isolated vertex
// still takes the first rank.
func TestClassifyGini(t *testing.T) {
	c := Classify(FromEdges("star", []Edge{{0, 1}, {0, 2}, {0, 4}}))
	if c.Gini != 0.4 || c.MaxDegree != 3 || c.MaxInDegree != 1 {
		t.Errorf("star: Gini %v, max degree %d, max in-degree %d; want 0.4, 3, 1", c.Gini, c.MaxDegree, c.MaxInDegree)
	}
}

func TestDegreeClassString(t *testing.T) {
	tests := map[DegreeClass]string{
		LowDegree:      "low-degree",
		HeavyTailed:    "heavy-tailed",
		PowerLaw:       "power-law",
		DegreeClass(9): "unknown",
	}
	for c, want := range tests {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

// TestDegreeClassText: the text form is String's for the three classes,
// round-trips, and refuses anything else both ways.
func TestDegreeClassText(t *testing.T) {
	for _, c := range []DegreeClass{LowDegree, HeavyTailed, PowerLaw} {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() {
			t.Errorf("%v.MarshalText() = %q, %v", c, text, err)
		}
		var back DegreeClass
		if err := back.UnmarshalText(text); err != nil || back != c {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, c)
		}
	}
	if _, err := DegreeClass(9).MarshalText(); err == nil {
		t.Error("DegreeClass(9) marshalled")
	}
	var c DegreeClass
	for _, bad := range []string{"unknown", "bogus", "", "Low-Degree"} {
		if err := c.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
}
