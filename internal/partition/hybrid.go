package partition

import (
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// DefaultHybridThreshold is the Hybrid/H-Ginger high-degree cutoff and the
// PowerLyra engine's narrow-vertex degree: the one value every binary, bench
// cell and service build uses. PowerLyra's default is 100 (§6.2.1), which
// assumes million-vertex graphs; at the scaled stand-ins' sizes 30 keeps the
// high-degree population proportionally similar.
const DefaultHybridThreshold = 30

// hybrid is PowerLyra's hybrid-cut (§6.2.1): edge-cuts for low-degree
// vertices and vertex-cuts for high-degree vertices, assigning each edge by
// its destination. Pass 1 places every edge by hash(dst) while counting
// in-degrees; pass 2 reassigns edges whose destination's in-degree exceeds
// the threshold by hash(src). Low-degree masters are colocated with all their
// in-edges, which is what lets PowerLyra's engine gather locally for
// natural applications.
type hybrid struct {
	threshold int // 0 means DefaultHybridThreshold
}

// Name implements Strategy.
func (hybrid) Name() string { return "Hybrid" }

// MultiPass implements MultiPassStrategy: hybrid-cut must know every
// destination's in-degree before it can place that destination's edges, so
// a degree-discovery scan precedes the placement scan and single-pass
// bounded-memory streaming is impossible.
func (hybrid) MultiPass() (passes, heuristicPasses int, why string) {
	return 2, 0, "needs a full degree-counting scan before any edge can be placed (§6.2.1)"
}

func (h hybrid) cutoff() int {
	if h.threshold <= 0 {
		return DefaultHybridThreshold
	}
	return h.threshold
}

// Partition implements Strategy.
func (h hybrid) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	res, _ := h.partition(g, numParts, seed)
	return res, nil
}

// partition additionally returns the high-degree flags for hybridGinger.
func (h hybrid) partition(g *graph.Graph, numParts int, seed uint64) (*Result, []bool) {
	n := g.NumVertices()
	thr := h.cutoff()
	parts := make([]int32, g.NumEdges())
	vhash := make([]int32, n)
	for v := 0; v < n; v++ {
		vhash[v] = int32(hashing.Vertex(seed, graph.VertexID(v)) % uint64(numParts))
	}

	// Pass 1: place every edge with its destination; count in-degrees.
	// (The real system also uses this pass to discover degrees; we read
	// them from the graph, which is equivalent for a two-pass scheme.)
	high := make([]bool, n)
	for v := 0; v < n; v++ {
		high[v] = g.InDegree(graph.VertexID(v)) > thr
	}

	// Pass 2: low-degree destinations keep hash(dst); high-degree
	// destinations are reassigned by hash(src).
	for i, e := range g.Edges {
		if high[e.Dst] {
			parts[i] = vhash[e.Src]
		} else {
			parts[i] = vhash[e.Dst]
		}
	}
	return &Result{EdgeParts: parts, MasterHint: vhash}, high
}

// hybridGinger is hybrid plus a Fennel-inspired refinement phase (§6.2.2):
// after hybrid partitioning, each low-degree vertex v is migrated (with its
// in-edges) to the partition p maximizing
//
//	c(v,p) = |Ni(v) ∩ Vp| − b(p),   b(p) = ½(|Vp| + |V|/|E|·|Ep|)
//
// i.e. toward its in-neighbors, discounted by a load-balance cost. The
// thesis finds the extra phase buys little replication-factor improvement
// at a large ingress and memory cost (§6.4.4) — behaviour this
// implementation reproduces.
type hybridGinger struct {
	threshold int // 0 means DefaultHybridThreshold
}

// Name implements Strategy.
func (hybridGinger) Name() string { return "H-Ginger" }

// MultiPass implements MultiPassStrategy. All three passes pay greedy
// O(numParts) scoring in the ingress model: the degree pass, the placement
// pass, and the Fennel-style refinement sweep, which additionally walks
// every low-degree vertex's in-edges — the paper's "significantly slower
// ingress" (§6.4.4).
func (hybridGinger) MultiPass() (passes, heuristicPasses int, why string) {
	return 3, 3, "hybrid's degree-counting scan plus a Fennel-style refinement sweep over vertex homes (§6.2.2)"
}

// Partition implements Strategy.
func (hg hybridGinger) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	res, high := hybrid{threshold: hg.threshold}.partition(g, numParts, seed)
	n := g.NumVertices()

	// Current low-degree home per vertex (where its in-edges live).
	home := make([]int32, n)
	copy(home, res.MasterHint)

	// Partition occupancy for the balance term.
	vCount := make([]float64, numParts)
	eCount := make([]float64, numParts)
	for v := 0; v < n; v++ {
		if g.Degree(graph.VertexID(v)) == 0 {
			continue
		}
		vCount[home[v]]++
		eCount[home[v]] += float64(g.InDegree(graph.VertexID(v)))
	}
	ratio := 0.0
	if g.NumEdges() > 0 {
		ratio = float64(n) / float64(g.NumEdges())
	}
	balance := func(p int) float64 { return 0.5 * (vCount[p] + ratio*eCount[p]) }

	// Refinement sweep over low-degree vertices in id order (the greedy,
	// order-dependent sweep the real implementation performs). nbrAt counts
	// the current vertex's in-neighbours per home and is zeroed again
	// through the same in-neighbours, so the sweep allocates nothing per
	// vertex.
	nbrAt := make([]float64, numParts)
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if high[v] || g.Degree(vid) == 0 {
			continue
		}
		inDeg := float64(g.InDegree(vid))
		nbrs := g.InNeighbors(vid)
		for _, u := range nbrs {
			nbrAt[home[u]]++
		}
		best := home[v]
		bestScore := nbrAt[home[v]] - balance(int(home[v]))
		for p := 0; p < numParts; p++ {
			if int32(p) == home[v] {
				continue
			}
			score := nbrAt[p] - balance(p)
			if score > bestScore {
				best, bestScore = int32(p), score
			}
		}
		// Guard against balance-term churn: a migration must strictly
		// improve in-neighbor colocation (each move mirrors every
		// non-colocated in-neighbor at the new home, so moves that only
		// help balance inflate the replication factor).
		if best != home[v] && nbrAt[best] <= nbrAt[home[v]] {
			best = home[v]
		}
		for _, u := range nbrs {
			nbrAt[home[u]] = 0
		}
		if best != home[v] {
			vCount[home[v]]--
			eCount[home[v]] -= inDeg
			vCount[best]++
			eCount[best] += inDeg
			home[v] = best
		}
	}

	// Apply the migrations: low-degree destinations move their in-edges.
	for i, e := range g.Edges {
		if !high[e.Dst] {
			res.EdgeParts[i] = home[e.Dst]
		}
	}
	res.MasterHint = home
	return res, nil
}
