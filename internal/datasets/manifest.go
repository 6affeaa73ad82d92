package datasets

import (
	"encoding/json"
	"io"

	"graphpart/internal/graph"
)

// Manifest is the full description of one dataset at one scale: the static
// registry info plus the measured size and skew of the built graph. It
// round-trips through JSON: gengraph prints it, partitiond serves it.
type Manifest struct {
	Name       string            `json:"name"`
	Kind       Kind              `json:"kind"`
	Class      graph.DegreeClass `json:"class"`
	Scale      int               `json:"scale"`
	Vertices   int               `json:"vertices"`
	Edges      int               `json:"edges"`
	Provenance string            `json:"provenance,omitempty"`
	// PaperVerts/PaperEdges are Table 4.2's real-dataset sizes the stand-in
	// represents (empty for external datasets).
	PaperVerts string            `json:"paperVertices,omitempty"`
	PaperEdges string            `json:"paperEdges,omitempty"`
	Stats      graph.DegreeStats `json:"stats"`
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
		Class:      cls.Class,
		Scale:      scale,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Provenance: info.Provenance,
		PaperVerts: info.PaperVerts,
		PaperEdges: info.PaperEdges,
		Stats:      cls.DegreeStats,
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
		Class:    cls.Class,
		Scale:    1,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Stats:    cls.DegreeStats,
	}
}

// Encode writes the manifest as indented JSON.
func (m Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
