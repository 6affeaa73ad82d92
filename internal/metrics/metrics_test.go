package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	f, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if f.R2 < 1-1e-12 {
		t.Fatalf("R² = %v, want 1", f.R2)
	}
	if got := f.Predict(10); math.Abs(got-21) > 1e-12 {
		t.Fatalf("Predict(10) = %v, want 21", got)
	}
	if got := f.Residual(10, 25); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Residual = %v, want 4", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Fit([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitResidualSignProperty(t *testing.T) {
	// For any 3+ distinct points, residuals sum to ~0 (OLS property).
	f := func(seed int64) bool {
		xs := []float64{1, 2, 3, 5, 8}
		ys := make([]float64, len(xs))
		s := seed
		for i := range ys {
			s = s*6364136223846793005 + 1442695040888963407
			ys[i] = float64(s%1000) / 100
		}
		fit, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range xs {
			sum += fit.Residual(xs[i], ys[i])
		}
		return math.Abs(sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlot(t *testing.T) {
	b := NewBoxPlot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if b.Median < 5 || b.Median > 6 {
		t.Errorf("median = %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.Max == 100 {
		t.Error("whisker max should exclude the outlier")
	}
	if b.Min != 1 {
		t.Errorf("min = %v, want 1", b.Min)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	b := NewBoxPlot(nil)
	if b.Mean != 0 {
		t.Errorf("empty boxplot mean = %v", b.Mean)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	if got := Quantile(data, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(data, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(data, 0.5); got != 2.5 {
		t.Errorf("q0.5 = %v, want 2.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty Mean should be NaN")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v; want 1", r, err)
	}
	yneg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want −1", r)
	}
	if _, err := Pearson(x, []float64{1, 1, 1, 1}); err == nil {
		t.Error("zero-variance accepted")
	}
}
