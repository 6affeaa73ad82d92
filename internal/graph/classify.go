package graph

import (
	"fmt"
	"math"
)

// DegreeClass is the paper's three-way degree-distribution taxonomy (§4.2,
// Table 4.2, and the decision trees in Figs 5.9/6.6/9.3): road networks are
// "Low-Degree", social networks are "Heavy-Tailed" (skewed but with fewer
// low-degree vertices than a pure power law would predict — Fig 5.8), and
// web graphs like UK-web are "Power-Law" (skewed with a full low-degree
// tail).
type DegreeClass int

const (
	// LowDegree marks graphs whose maximum degree is small (road networks).
	LowDegree DegreeClass = iota
	// HeavyTailed marks skewed graphs with relatively few low-degree
	// vertices (LiveJournal, Twitter, enwiki).
	HeavyTailed
	// PowerLaw marks skewed graphs whose low-degree counts track the
	// power-law regression line (UK-web).
	PowerLaw
)

// String implements fmt.Stringer.
func (c DegreeClass) String() string {
	switch c {
	case LowDegree:
		return "low-degree"
	case HeavyTailed:
		return "heavy-tailed"
	case PowerLaw:
		return "power-law"
	}
	return "unknown"
}

// ParseDegreeClass inverts String: it maps the serialized class names used
// by dataset manifests back to the taxonomy.
func ParseDegreeClass(s string) (DegreeClass, error) {
	switch s {
	case "low-degree":
		return LowDegree, nil
	case "heavy-tailed":
		return HeavyTailed, nil
	case "power-law":
		return PowerLaw, nil
	}
	return LowDegree, fmt.Errorf("graph: unknown degree class %q", s)
}

// PowerLawFit holds the result of a log-log least-squares fit of a degree
// histogram: count(d) ≈ C * d^(-Alpha). This is the regression line drawn
// through the paper's Figure 5.8.
type PowerLawFit struct {
	Alpha float64 // positive exponent of the fitted power law
	LogC  float64 // natural-log intercept
	R2    float64 // coefficient of determination of the log-log fit
	// LowDegreeRatio compares the observed number of degree-1 and degree-2
	// vertices to the number the fitted line predicts. ≈1 means the graph
	// follows the power law all the way down (UK-web); ≪1 means the graph
	// has a deficit of low-degree vertices (Twitter, LiveJournal).
	LowDegreeRatio float64
}

// Predict returns the fitted vertex count for degree d.
func (f PowerLawFit) Predict(d int) float64 {
	if d <= 0 {
		return 0
	}
	return math.Exp(f.LogC - f.Alpha*math.Log(float64(d)))
}

// FitPowerLaw fits count(d) = C·d^(-alpha) to a degree histogram by linear
// least squares in log-log space. Degree-0 entries are ignored.
func FitPowerLaw(hist map[int]int) PowerLawFit {
	degrees, counts := sortedHistogram(hist)
	n := 0
	var sx, sy, sxx, sxy float64
	for i, d := range degrees {
		if counts[i] <= 0 {
			continue
		}
		x := math.Log(float64(d))
		y := math.Log(float64(counts[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return PowerLawFit{}
	}
	fn := float64(n)
	denom := fn*sxx - sx*sx
	if denom == 0 {
		return PowerLawFit{}
	}
	slope := (fn*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / fn
	fit := PowerLawFit{Alpha: -slope, LogC: intercept}

	// R² of the log-log fit.
	meanY := sy / fn
	var ssTot, ssRes float64
	for i, d := range degrees {
		if counts[i] <= 0 {
			continue
		}
		x := math.Log(float64(d))
		y := math.Log(float64(counts[i]))
		pred := intercept + slope*x
		ssTot += (y - meanY) * (y - meanY)
		ssRes += (y - pred) * (y - pred)
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	}

	observedLow := float64(hist[1] + hist[2])
	predictedLow := fit.Predict(1) + fit.Predict(2)
	if predictedLow > 0 {
		fit.LowDegreeRatio = observedLow / predictedLow
	}
	return fit
}

// Classification bundles the degree class with the evidence behind it.
type Classification struct {
	Class     DegreeClass
	MaxDegree int
	AvgDegree float64
	Fit       PowerLawFit
}

// lowDegreeMaxDegree is the maximum-degree cutoff below which a graph is
// considered low-degree. The paper observes road networks max out at degree
// 12 while 2D partitioning's replication bound on a 160-partition cluster is
// 25 (§7.4); any graph whose hubs stay below that regime behaves like a
// road network for partitioning purposes.
const lowDegreeMaxDegree = 32

// lowDegreeRatioCutoff splits power-law from heavy-tailed: graphs whose
// observed low-degree population is at least this fraction of the power-law
// prediction follow the line (UK-web, Fig 5.8c); graphs below it have the
// low-degree deficit of social networks (Fig 5.8a/b).
const lowDegreeRatioCutoff = 0.25

// Classify determines the degree class of g using the same evidence the
// paper uses: maximum degree for the low-degree test, and the position of
// low-degree counts relative to the log-log regression line (Fig 5.8) to
// split heavy-tailed from power-law.
func Classify(g *Graph) Classification {
	c := Classification{
		MaxDegree: g.MaxDegree(),
		AvgDegree: g.AvgDegree(),
	}
	if c.MaxDegree <= lowDegreeMaxDegree {
		c.Class = LowDegree
		return c
	}
	// Total degree separates the classes best: social graphs have few
	// vertices with *total* degree 1–2 even though their in-degree tail
	// reaches low values.
	c.Fit = FitPowerLaw(g.DegreeHistogram())
	if c.Fit.LowDegreeRatio >= lowDegreeRatioCutoff {
		c.Class = PowerLaw
	} else {
		c.Class = HeavyTailed
	}
	return c
}
