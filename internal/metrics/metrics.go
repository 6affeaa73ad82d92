// Package metrics provides the small statistical toolkit the experiments
// use: linear regression (the replication-factor correlation lines of Figs
// 5.3–5.5, 6.1–6.2 and 8.3), box-plot summaries (Fig 8.4), and simple
// aggregates.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// LinFit is an ordinary-least-squares line y = Slope·x + Intercept.
type LinFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Fit computes the least-squares line through (x[i], y[i]).
func Fit(x, y []float64) (LinFit, error) {
	if len(x) != len(y) {
		return LinFit{}, fmt.Errorf("metrics: len(x)=%d len(y)=%d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinFit{}, fmt.Errorf("metrics: need ≥2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return LinFit{}, fmt.Errorf("metrics: degenerate x values")
	}
	f := LinFit{N: len(x)}
	f.Slope = (n*sxy - sx*sy) / denom
	f.Intercept = (sy - f.Slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := f.Slope*x[i] + f.Intercept
		ssTot += (y[i] - meanY) * (y[i] - meanY)
		ssRes += (y[i] - pred) * (y[i] - pred)
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// Predict evaluates the fitted line at x.
func (f LinFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// Residual returns y − Predict(x): positive means the point sits above the
// trend line (worse than its replication factor predicts, in the paper's
// reading of Figs 6.1/8.3).
func (f LinFit) Residual(x, y float64) float64 { return y - f.Predict(x) }

// BoxPlot is the five-number summary drawn in Fig 8.4, plus outliers
// ("flier points") beyond 1.5×IQR.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64 // whiskers exclude outliers
	Outliers                 []float64
	Mean                     float64
}

// NewBoxPlot summarizes the sample (which it sorts in place).
func NewBoxPlot(sample []float64) BoxPlot {
	var b BoxPlot
	if len(sample) == 0 {
		return b
	}
	sort.Float64s(sample)
	b.Q1 = Quantile(sample, 0.25)
	b.Median = Quantile(sample, 0.5)
	b.Q3 = Quantile(sample, 0.75)
	iqr := b.Q3 - b.Q1
	loFence, hiFence := b.Q1-1.5*iqr, b.Q3+1.5*iqr
	b.Min, b.Max = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, v := range sample {
		sum += v
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	b.Mean = sum / float64(len(sample))
	if math.IsInf(b.Min, 1) { // everything was an outlier
		b.Min, b.Max = sample[0], sample[len(sample)-1]
	}
	return b
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted data, with linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, fmt.Errorf("metrics: need two equal-length samples of ≥2")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("metrics: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
