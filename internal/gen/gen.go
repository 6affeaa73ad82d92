// Package gen produces the deterministic synthetic graphs that stand in for
// the paper's datasets (Table 4.2).
//
// The paper's analysis depends only on the degree-distribution class of each
// input (§5.4.2, Fig 5.8): road networks are low-degree and high-diameter;
// LiveJournal/enwiki/Twitter are heavy-tailed with a deficit of low-degree
// vertices; UK-web is power-law with a full low-degree tail. Each generator
// here is parameterized to land squarely in one of those classes, which the
// tests verify with the same log-log regression the paper plots.
package gen

import (
	"math"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// StreamRoadNet emits the road network RoadNet builds — a w×h 2-D lattice
// with both directions of every road present, a fraction of streets
// removed, and a sprinkle of diagonal "shortcut" roads — in batches of
// ~batchSize edges (at most batchSize+1, since roads are emitted as
// bidirectional pairs; ≤0 means 64Ki), without ever materializing the edge
// list. The batch slice is reused between calls; fn must copy anything it
// retains. Identical seed ⇒ identical edges to RoadNet, in the same order.
func StreamRoadNet(w, h int, seed uint64, batchSize int, fn func(edges []graph.Edge) error) error {
	if batchSize <= 0 {
		batchSize = 1 << 16
	}
	rng := hashing.NewRNG(seed)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*w + x) }
	batch := make([]graph.Edge, 0, batchSize+1)
	var ferr error
	addRoad := func(a, b graph.VertexID) {
		if ferr != nil {
			// A flush already failed; a later flush must not overwrite
			// (and potentially clear) the error.
			return
		}
		batch = append(batch, graph.Edge{Src: a, Dst: b}, graph.Edge{Src: b, Dst: a})
		if len(batch) >= batchSize {
			ferr = fn(batch)
			batch = batch[:0]
		}
	}
	for y := 0; y < h && ferr == nil; y++ {
		for x := 0; x < w && ferr == nil; x++ {
			// Drop ~12% of grid streets to create irregularity, but keep the
			// lattice largely intact so diameter stays Θ(w+h).
			if x+1 < w && rng.Float64() >= 0.12 {
				addRoad(id(x, y), id(x+1, y))
			}
			if y+1 < h && rng.Float64() >= 0.12 {
				addRoad(id(x, y), id(x, y+1))
			}
			// Occasional diagonal shortcut (on/off-ramps).
			if x+1 < w && y+1 < h && rng.Float64() < 0.03 {
				addRoad(id(x, y), id(x+1, y+1))
			}
		}
	}
	if ferr != nil {
		return ferr
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}

// RoadNet generates a road-network-like graph: StreamRoadNet with the
// batches collected. The result is connected-ish, low-degree (max total
// degree ≤ ~16), and high-diameter — the road-net-CA / road-net-USA regime.
func RoadNet(name string, w, h int, seed uint64) *graph.Graph {
	var edges []graph.Edge
	// The collector callback never fails, so StreamRoadNet cannot either.
	_ = StreamRoadNet(w, h, seed, 0, func(batch []graph.Edge) error {
		edges = append(edges, batch...)
		return nil
	})
	return graph.FromEdges(name, edges)
}

// PrefAttach generates a heavy-tailed graph by preferential attachment
// (Barabási–Albert): vertex v (for v ≥ m) adds m out-edges whose targets are
// sampled proportionally to current total degree. Every vertex has total
// degree ≥ m, so the graph has the low-degree deficit that characterizes
// the paper's social-network datasets (LiveJournal, enwiki, Twitter in
// Fig 5.8a/b).
func PrefAttach(name string, n, m int, seed uint64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := hashing.NewRNG(seed)
	edges := make([]graph.Edge, 0, n*m)
	// endpoints lists every edge endpoint seen so far; sampling uniformly
	// from it is sampling proportional to degree.
	endpoints := make([]graph.VertexID, 0, 2*n*m)
	// Seed clique over the first m+1 vertices.
	for v := 1; v <= m && v < n; v++ {
		for u := 0; u < v; u++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(u)})
			endpoints = append(endpoints, graph.VertexID(v), graph.VertexID(u))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[graph.VertexID]bool, m)
		for len(chosen) < m {
			var t graph.VertexID
			if rng.Float64() < 0.05 || len(endpoints) == 0 {
				// Small uniform component keeps the tail from collapsing
				// onto a handful of hubs.
				t = graph.VertexID(rng.Intn(v))
			} else {
				t = endpoints[rng.Intn(len(endpoints))]
			}
			if t == graph.VertexID(v) || chosen[t] {
				continue
			}
			chosen[t] = true
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: t})
			endpoints = append(endpoints, graph.VertexID(v), t)
		}
	}
	shuffleEdges(edges, rng)
	return graph.FromEdges(name, edges)
}

// PowerLawConfig configures PowerLaw.
type PowerLawConfig struct {
	N     int     // number of vertices
	Alpha float64 // power-law exponent of the degree sequence (e.g. 1.9–2.2)
	MaxD  int     // cap on a single vertex's generated degree
	MinD  int     // floor on degree (use 1 to keep the full low-degree tail)
	Seed  uint64
}

// PowerLaw generates a power-law graph with a *full* low-degree tail (most
// vertices have degree 1–2); gengraph's -kind powerlaw writes it (the uk-web
// dataset is WebGraph). It draws a
// Zipf out-degree sequence and pairs edge stubs configuration-model style;
// in-degrees are assigned by an independent Zipf sequence so both
// distributions are skewed, as in web graphs.
func PowerLaw(name string, cfg PowerLawConfig) *graph.Graph {
	if cfg.MinD < 1 {
		cfg.MinD = 1
	}
	if cfg.MaxD < cfg.MinD {
		cfg.MaxD = cfg.MinD
	}
	rng := hashing.NewRNG(cfg.Seed)
	outDeg := zipfDegrees(cfg.N, cfg.Alpha, cfg.MinD, cfg.MaxD, rng)
	inDeg := zipfDegrees(cfg.N, cfg.Alpha, cfg.MinD, cfg.MaxD, rng)

	// Build stub lists. Vertex order is permuted independently for the two
	// sides so hubs on the out side are not the same vertices as hubs on
	// the in side (web pages with many links are rarely the most linked-to).
	srcStubs := stubs(outDeg, rng)
	dstStubs := stubs(inDeg, rng)
	m := len(srcStubs)
	if len(dstStubs) < m {
		m = len(dstStubs)
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		s, d := srcStubs[i], dstStubs[i]
		if s == d {
			continue // drop self-loops
		}
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	return graph.FromEdges(name, edges)
}

// zipfDegrees draws n degrees from a truncated Zipf distribution with
// exponent alpha via inverse-CDF sampling over [minD, maxD].
func zipfDegrees(n int, alpha float64, minD, maxD int, rng *hashing.RNG) []int {
	// Precompute the CDF of P(d) ∝ d^-alpha over the support.
	support := maxD - minD + 1
	cdf := make([]float64, support)
	total := 0.0
	for i := 0; i < support; i++ {
		d := float64(minD + i)
		total += math.Pow(d, -alpha)
		cdf[i] = total
	}
	degs := make([]int, n)
	for i := range degs {
		u := rng.Float64() * total
		lo, hi := 0, support-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		degs[i] = minD + lo
	}
	return degs
}

// stubs expands a degree sequence into a shuffled list of vertex stubs.
func stubs(deg []int, rng *hashing.RNG) []graph.VertexID {
	total := 0
	for _, d := range deg {
		total += d
	}
	out := make([]graph.VertexID, 0, total)
	for v, d := range deg {
		for i := 0; i < d; i++ {
			out = append(out, graph.VertexID(v))
		}
	}
	shuffleVertices(out, rng)
	return out
}

func shuffleEdges(edges []graph.Edge, rng *hashing.RNG) {
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
}

func shuffleVertices(vs []graph.VertexID, rng *hashing.RNG) {
	for i := len(vs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		vs[i], vs[j] = vs[j], vs[i]
	}
}
