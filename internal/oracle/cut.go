package oracle

import (
	"fmt"
	"slices"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// Cut is the vertex-cut a per-edge placement makes, counted in plain slices:
// a partition holds an image of every endpoint of every edge placed on it.
type Cut struct {
	NumParts  int
	Parts     []int32 // partition of each edge, as given
	EdgeCount []int64 // edges per partition
	Images    []int64 // vertex images per partition
	Replicas  []int   // images per vertex
	Masters   []int32 // master partition per vertex, −1 when it has no image
	Total     int64   // images overall
	Placed    int64   // vertices with at least one image

	holds []bool // holds[v*NumParts+p]
}

// NewCut counts the cut that places edges[i] on parts[i] over n vertices.
// The master of a vertex follows §5.1.1, made deterministic: hint[v] when
// that partition holds an image of v, else the image at position
// hashing.Vertex(seed^0xa57e, v) mod k among v's k images in ascending
// order. hint may be nil.
func NewCut(n, numParts int, edges []graph.Edge, parts, hint []int32, seed uint64) (*Cut, error) {
	if len(parts) != len(edges) {
		return nil, fmt.Errorf("oracle: %d placements for %d edges", len(parts), len(edges))
	}
	c := &Cut{
		NumParts:  numParts,
		Parts:     parts,
		EdgeCount: make([]int64, numParts),
		Images:    make([]int64, numParts),
		Replicas:  make([]int, n),
		Masters:   make([]int32, n),
		holds:     make([]bool, n*numParts),
	}
	for i, e := range edges {
		p := parts[i]
		if p < 0 || int(p) >= numParts {
			return nil, fmt.Errorf("oracle: edge %d on partition %d (numParts=%d)", i, p, numParts)
		}
		c.EdgeCount[p]++
		c.holds[int(e.Src)*numParts+int(p)] = true
		c.holds[int(e.Dst)*numParts+int(p)] = true
	}
	for v := 0; v < n; v++ {
		row := c.holds[v*numParts : (v+1)*numParts]
		var on []int32
		for p, held := range row {
			if held {
				on = append(on, int32(p))
				c.Images[p]++
			}
		}
		c.Replicas[v], c.Masters[v] = len(on), -1
		if len(on) > 0 {
			c.Placed++
			c.Total += int64(len(on))
			c.Masters[v] = on[hashing.Vertex(seed^0xa57e, graph.VertexID(v))%uint64(len(on))]
		}
		if len(hint) == n && hint[v] >= 0 && int(hint[v]) < numParts && row[hint[v]] {
			c.Masters[v] = hint[v]
		}
	}
	return c, nil
}

// Holds reports whether partition p holds an image of v.
func (c *Cut) Holds(v graph.VertexID, p int) bool { return c.holds[int(v)*c.NumParts+p] }

// RF is the replication factor: images per vertex that has any.
func (c *Cut) RF() float64 {
	if c.Placed == 0 {
		return 0
	}
	return float64(c.Total) / float64(c.Placed)
}

// Balance is the most edges on one partition over the mean, 1 when no edge
// is placed.
func (c *Cut) Balance() float64 {
	if len(c.Parts) == 0 {
		return 1
	}
	return float64(slices.Max(c.EdgeCount)) / (float64(len(c.Parts)) / float64(c.NumParts))
}
