package graph

import (
	"fmt"
	"math"

	"graphpart/internal/metrics"
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

// MarshalText writes the class as String does; UnmarshalText accepts only
// the three class names, so a manifest naming another class fails to
// decode rather than reaching a decision tree.
func (c DegreeClass) MarshalText() ([]byte, error) {
	if c < LowDegree || c > PowerLaw {
		return nil, fmt.Errorf("graph: unknown degree class %d", int(c))
	}
	return []byte(c.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *DegreeClass) UnmarshalText(text []byte) error {
	for k := LowDegree; k <= PowerLaw; k++ {
		if string(text) == k.String() {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("graph: unknown degree class %q", text)
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
	return fitPowerLaw(degrees, counts, hist)
}

// fitPowerLaw is FitPowerLaw over the histogram already flattened by
// sortedHistogram. Fewer than two distinct degrees fit nothing.
func fitPowerLaw(degrees, counts []int, hist map[int]int) PowerLawFit {
	var x, y []float64
	for i, d := range degrees {
		if counts[i] > 0 {
			x = append(x, math.Log(float64(d)))
			y = append(y, math.Log(float64(counts[i])))
		}
	}
	line, err := metrics.Fit(x, y)
	if err != nil {
		return PowerLawFit{}
	}
	fit := PowerLawFit{Alpha: -line.Slope, LogC: line.Intercept, R2: line.R2}
	observedLow := float64(hist[1] + hist[2])
	predictedLow := fit.Predict(1) + fit.Predict(2)
	if predictedLow > 0 {
		fit.LowDegreeRatio = observedLow / predictedLow
	}
	return fit
}

// DegreeStats is the degree-skew feature vector of one graph: the evidence
// the paper's decision trees branch on (maximum degree for the low-degree
// test, the Fig 5.8 fit position for heavy-tailed vs power-law) plus the
// skew statistics ML-based strategy selection extracts. Dataset manifests
// carry it as their "stats" object.
type DegreeStats struct {
	MaxDegree   int     `json:"maxDegree"`
	MaxInDegree int     `json:"maxInDegree"`
	AvgDegree   float64 `json:"avgDegree"`
	// Gini is the Gini coefficient of the total-degree distribution: 0 for
	// perfectly uniform degrees (road lattices), approaching 1 as a few hubs
	// hold most of the edges.
	Gini float64 `json:"gini"`
	// Alpha/R2/LowDegreeRatio come from the log-log power-law fit of the
	// total-degree histogram (FitPowerLaw): the regression the paper draws
	// through Figure 5.8 and uses to separate heavy-tailed from power-law.
	Alpha          float64 `json:"alpha"`
	R2             float64 `json:"r2"`
	LowDegreeRatio float64 `json:"lowDegreeRatio"`
}

// Classification bundles the degree class with the evidence behind it.
type Classification struct {
	Class DegreeClass
	DegreeStats
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

// Classify measures g's degree-skew statistics from one total-degree
// histogram and determines its class from the same evidence the paper
// uses: maximum degree for the low-degree test, and the position of
// low-degree counts relative to the log-log regression line (Fig 5.8) to
// split heavy-tailed from power-law. Total degree separates the classes
// best: social graphs have few vertices with *total* degree 1–2 even
// though their in-degree tail reaches low values.
func Classify(g *Graph) Classification {
	hist := g.DegreeHistogram()
	degrees, counts := sortedHistogram(hist)
	fit := fitPowerLaw(degrees, counts, hist)
	c := Classification{DegreeStats: DegreeStats{
		MaxInDegree:    g.MaxInDegree(),
		AvgDegree:      g.AvgDegree(),
		Gini:           gini(degrees, counts, hist[0], g.NumVertices()),
		Alpha:          fit.Alpha,
		R2:             fit.R2,
		LowDegreeRatio: fit.LowDegreeRatio,
	}}
	if len(degrees) > 0 {
		c.MaxDegree = degrees[len(degrees)-1]
	}
	switch {
	case c.MaxDegree <= lowDegreeMaxDegree:
		c.Class = LowDegree
	case c.LowDegreeRatio >= lowDegreeRatioCutoff:
		c.Class = PowerLaw
	default:
		c.Class = HeavyTailed
	}
	return c
}

// gini computes the Gini coefficient of a degree distribution from its
// positive degrees sorted ascending, their counts, the number of isolated
// vertices and the vertex total: G = Σ (2i−n−1)·d_i / (n·Σd), with i the
// 1-based rank.
func gini(degrees, counts []int, isolated, n int) float64 {
	var (
		rank      = float64(isolated) // vertices seen so far: degree 0 ranks first
		weightSum float64             // Σ (2i−n−1)·d_i accumulated per histogram bucket
		degSum    float64
	)
	fn := float64(n)
	for i, d := range degrees {
		c := float64(counts[i])
		// The c vertices of degree d occupy ranks rank+1 … rank+c; the sum
		// of (2i−n−1) over that run has the closed form below.
		sumRanks := c*(2*rank+c+1) - c*(fn+1)
		weightSum += sumRanks * float64(d)
		degSum += c * float64(d)
		rank += c
	}
	if n == 0 || degSum == 0 {
		return 0
	}
	return weightSum / (fn * degSum)
}
