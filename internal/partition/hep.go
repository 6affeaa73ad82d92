package partition

import (
	"container/heap"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

func init() {
	Register("HEP", func(opt Options) Strategy { return HEP{MemBudget: opt.MemBudget} })
}

// DefaultMemBudget is HEP's default in-memory edge budget: the fraction of
// the edge list the in-memory NE phase may hold (arXiv 2103.12594 evaluates
// budgets around 10–100% of |E|; half the graph is the bridging default).
const DefaultMemBudget = 0.5

// HEP is the hybrid edge partitioner (arXiv 2103.12594): the low-degree
// core of the graph — every edge whose endpoints both fall at or below a
// degree threshold τ — is partitioned in memory with NE-style neighborhood
// expansion, and the remaining high-degree "spill" edges are streamed
// through HDRF scoring against the core placement. τ is chosen as the
// largest degree for which the core fits the memory budget, so the budget
// dials the strategy continuously between pure streaming (budget→0 degrades
// to single-loader HDRF) and pure in-memory partitioning (budget≥1).
//
// The split exploits the power-law structure the paper measures throughout:
// almost all vertices are low-degree, so even a modest budget covers most
// edges with the high-quality in-memory phase, while the hub-dominated
// remainder is exactly the regime HDRF's degree-aware scoring handles best.
// The spill stream scores at HDRF's λ = 1.
type HEP struct {
	// MemBudget is the in-memory edge budget as a fraction of |E|
	// (0 means DefaultMemBudget; values are clamped to [0,1]).
	MemBudget float64
}

// Name implements Strategy.
func (HEP) Name() string { return "HEP" }

// MultiPass implements MultiPassStrategy: the degree threshold and the core
// subgraph must be known before any edge can be placed, so a degree-census
// scan precedes the placement scan; the placement scan pays O(numParts)
// HDRF scoring on the spill edges.
func (HEP) MultiPass() (passes, heuristicPasses int, why string) {
	return 2, 1, "needs a degree census to split the low-degree core (in-memory NE) from the high-degree spill (streamed HDRF) under the memory budget"
}

func (h HEP) budget() float64 {
	b := h.MemBudget
	if b == 0 {
		b = DefaultMemBudget
	}
	if b < 0 {
		b = 0
	}
	if b > 1 {
		b = 1
	}
	return b
}

// Partition implements Strategy.
func (h HEP) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	n := g.NumVertices()
	m := g.NumEdges()
	parts := make([]int32, m)

	// Pass 1 (census): find the largest degree threshold τ whose core —
	// edges with both endpoints of degree ≤ τ — fits the budget. An edge
	// enters the core at threshold max(deg(src), deg(dst)), so a histogram
	// of that quantity prefix-sums straight to the core size per τ.
	capEdges := int64(h.budget() * float64(m))
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(graph.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	hist := make([]int64, maxDeg+1)
	for _, e := range g.Edges {
		d := g.Degree(e.Src)
		if dd := g.Degree(e.Dst); dd > d {
			d = dd
		}
		hist[d]++
	}
	tau, coreSize := 0, int64(0)
	for d := 1; d <= maxDeg; d++ {
		if coreSize+hist[d] > capEdges {
			break
		}
		coreSize += hist[d]
		tau = d
	}

	// Collect the core edge indices and the core incidence lists.
	isCore := func(e graph.Edge) bool {
		return g.Degree(e.Src) <= tau && g.Degree(e.Dst) <= tau
	}
	coreDeg := make([]int32, n)
	coreIdx := make([]int32, 0, coreSize)
	for i, e := range g.Edges {
		if isCore(e) {
			coreIdx = append(coreIdx, int32(i))
			coreDeg[e.Src]++
			coreDeg[e.Dst]++
		}
	}
	// CSR over core incidence: adj[adjStart[v]:adjStart[v+1]] lists the core
	// edge indices incident to v (a self-loop appears twice).
	adjStart := make([]int32, n+1)
	for v := 0; v < n; v++ {
		adjStart[v+1] = adjStart[v] + coreDeg[v]
	}
	adj := make([]int32, adjStart[n])
	cursor := make([]int32, n)
	copy(cursor, adjStart[:n])
	for _, i := range coreIdx {
		e := g.Edges[i]
		adj[cursor[e.Src]] = i
		cursor[e.Src]++
		adj[cursor[e.Dst]] = i
		cursor[e.Dst]++
	}

	// Pass 2a (in-memory NE over the core): grow partitions one at a time
	// to a proportional cap. The frontier vertex with the fewest unassigned
	// incident core edges is expanded next (lowest id on ties) — pulling in
	// whole neighborhoods while cutting the cheapest boundary vertices, the
	// NE expansion rule. Exhausted frontiers reseed from the lowest-id
	// vertex that still has unassigned core edges.
	assigned := make([]bool, m) // by edge index; spill edges stay false here
	residual := make([]int32, n)
	copy(residual, coreDeg)
	remaining := int64(len(coreIdx))
	seedCursor := 0
	for p := 0; p < numParts && remaining > 0; p++ {
		quota := (remaining + int64(numParts-p) - 1) / int64(numParts-p)
		var took int64
		fr := &vertexHeap{}
		inFrontier := make([]bool, n)
		for took < quota && remaining > 0 {
			var v int
			if fr.Len() > 0 {
				v = heap.Pop(fr).(heapVertex).id
				if residual[v] == 0 {
					continue
				}
			} else {
				for seedCursor < n && residual[seedCursor] == 0 {
					seedCursor++
				}
				v = seedCursor
			}
			for _, ei := range adj[adjStart[v]:adjStart[v+1]] {
				if assigned[ei] {
					continue
				}
				e := g.Edges[ei]
				assigned[ei] = true
				parts[ei] = int32(p)
				residual[e.Src]--
				residual[e.Dst]--
				took++
				remaining--
				o := e.Src
				if int(o) == v {
					o = e.Dst
				}
				if residual[o] > 0 && !inFrontier[o] {
					inFrontier[o] = true
					heap.Push(fr, heapVertex{key: residual[o], id: int(o)})
				}
			}
		}
	}

	// Pass 2b (streamed spill): one HDRF loader pre-seeded with the core
	// placement — its partition loads, placement sets and partial degrees
	// all reflect the in-memory phase — streams the spill edges in edge
	// order. Spill edges are hub edges, HDRF's best case.
	st := newLoaderState(n, numParts, hashing.Combine(seed, 0x48e9), true)
	for _, i := range coreIdx {
		e := g.Edges[i]
		st.place(e, int(parts[i]))
		st.pdeg[e.Src]++
		st.pdeg[e.Dst]++
	}
	for i, e := range g.Edges {
		if assigned[i] {
			continue
		}
		p := hdrfPick(st, e, numParts, 1)
		st.place(e, p)
		parts[i] = int32(p)
	}
	return &Result{EdgeParts: parts}, nil
}

// heapVertex is a frontier entry: the vertex and its unassigned-incident-
// edge count at push time (stale entries are skipped on pop).
type heapVertex struct {
	key int32
	id  int
}

// vertexHeap is a deterministic min-heap over (key, id).
type vertexHeap []heapVertex

func (h vertexHeap) Len() int { return len(h) }
func (h vertexHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].id < h[j].id
}
func (h vertexHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x any)   { *h = append(*h, x.(heapVertex)) }
func (h *vertexHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
