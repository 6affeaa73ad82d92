package datasets

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"graphpart/internal/graph"
)

// DegreeStats are the measured degree-skew statistics of one dataset build —
// the graph features that drive strategy choice in the paper's decision
// trees (max degree for the low-degree test, the power-law fit position for
// heavy-tailed vs power-law) and that ML-based strategy selection extracts.
type DegreeStats struct {
	MaxDegree   int     `json:"maxDegree"`
	MaxInDegree int     `json:"maxInDegree"`
	AvgDegree   float64 `json:"avgDegree"`
	// Gini is the Gini coefficient of the total-degree distribution: 0 for
	// perfectly uniform degrees (road lattices), approaching 1 as a few hubs
	// hold most of the edges.
	Gini float64 `json:"gini"`
	// Alpha/R2/LowDegreeRatio come from the log-log power-law fit of the
	// degree histogram (graph.FitPowerLaw): the regression the paper draws
	// through Figure 5.8 and uses to separate heavy-tailed from power-law.
	Alpha          float64 `json:"alpha"`
	R2             float64 `json:"r2"`
	LowDegreeRatio float64 `json:"lowDegreeRatio"`
}

// Manifest is the full description of one dataset at one scale: the static
// registry info plus the measured size and skew of the built graph. It
// round-trips through JSON, so manifests can sit next to cached .csrg files
// and feed downstream tooling.
type Manifest struct {
	Name       string `json:"name"`
	Kind       Kind   `json:"kind"`
	Class      string `json:"class"`
	Scale      int    `json:"scale"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Provenance string `json:"provenance,omitempty"`
	// PaperVerts/PaperEdges are Table 4.2's real-dataset sizes the stand-in
	// represents (empty for external datasets).
	PaperVerts string      `json:"paperVertices,omitempty"`
	PaperEdges string      `json:"paperEdges,omitempty"`
	Stats      DegreeStats `json:"stats"`
}

// BuildManifest loads the dataset (through both caches) and measures it.
func BuildManifest(name string, scale int) (Manifest, error) {
	if scale < 1 {
		scale = 1
	}
	info, err := Describe(name)
	if err != nil {
		return Manifest{}, err
	}
	g, err := Load(name, scale)
	if err != nil {
		return Manifest{}, err
	}
	cls := graph.Classify(g)
	return Manifest{
		Name:       info.Name,
		Kind:       info.Kind,
		Class:      cls.Class.String(),
		Scale:      scale,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Provenance: info.Provenance,
		PaperVerts: info.PaperVerts,
		PaperEdges: info.PaperEdges,
		Stats:      statsFor(g, cls),
	}, nil
}

// MeasureManifest describes an unregistered graph: an External-kind
// manifest with the measured class, sizes and skew statistics — the
// feature vector cmd/decide builds for -input files.
func MeasureManifest(g *graph.Graph) Manifest {
	cls := graph.Classify(g)
	return Manifest{
		Name:     g.Name,
		Kind:     External,
		Class:    cls.Class.String(),
		Scale:    1,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Stats:    statsFor(g, cls),
	}
}

// statsFor derives the manifest statistics from an already-computed
// classification, so callers that need both never classify twice.
func statsFor(g *graph.Graph, cls graph.Classification) DegreeStats {
	if cls.Class == graph.LowDegree {
		// Classify skips the power-law fit below the low-degree cutoff;
		// manifests always carry it (a lattice's fit position is still a
		// feature).
		cls.Fit = graph.FitPowerLaw(g.DegreeHistogram())
	}
	return DegreeStats{
		MaxDegree:      cls.MaxDegree,
		MaxInDegree:    g.MaxInDegree(),
		AvgDegree:      cls.AvgDegree,
		Gini:           giniDegree(g),
		Alpha:          cls.Fit.Alpha,
		R2:             cls.Fit.R2,
		LowDegreeRatio: cls.Fit.LowDegreeRatio,
	}
}

// Encode writes the manifest as indented JSON.
func (m Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeManifest reads a manifest back from JSON.
func DecodeManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("datasets: manifest decode: %w", err)
	}
	if m.Name == "" {
		return Manifest{}, fmt.Errorf("datasets: manifest without a name")
	}
	return m, nil
}

// giniDegree computes the Gini coefficient of the total-degree distribution
// from the degree histogram: G = Σ (2i−n−1)·d_i / (n·Σd) over degrees sorted
// ascending, with i the 1-based rank.
func giniDegree(g *graph.Graph) float64 {
	hist := g.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	var (
		rank      float64 // vertices seen so far
		weightSum float64 // Σ (2i−n−1)·d_i accumulated per histogram bucket
		degSum    float64
	)
	n := float64(g.NumVertices())
	for _, d := range degrees {
		c := float64(hist[d])
		// The c vertices of degree d occupy ranks rank+1 … rank+c; the sum
		// of (2i−n−1) over that run has the closed form below.
		sumRanks := c*(2*rank+c+1) - c*(n+1)
		weightSum += sumRanks * float64(d)
		degSum += c * float64(d)
		rank += c
	}
	if n == 0 || degSum == 0 {
		return 0
	}
	return weightSum / (n * degSum)
}
