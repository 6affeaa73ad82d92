package partition

import (
	"sort"

	"graphpart/internal/graph"
)

func init() {
	Register("Multilevel", func(opt Options) Strategy { return Multilevel{} })
}

// Multilevel is a METIS-style offline baseline: coarsen the graph by
// heavy-edge matching until it fits comfortably in memory, partition the
// coarse graph greedily, then project the labels back level by level with a
// boundary-refinement sweep at each step. The result is a *vertex*
// partitioning — each vertex gets one home — converted to the repo's edge
// placement at the end: an edge between same-home endpoints lives on that
// home, a cut edge goes to whichever endpoint's home currently holds fewer
// edges. It fills the batch-rebalancing role of ADR-009: the quality
// ceiling an offline pass can reach when ingress cost is no object, against
// which the streaming families are compared. Coarsening stops at or below
// max(64, 8·numParts) vertices.
type Multilevel struct{}

// Name implements Strategy.
func (Multilevel) Name() string { return "Multilevel" }

// MultiPass implements MultiPassStrategy: coarsening, initial partitioning
// and projection all need the whole (successively contracted) edge list
// resident; only the refinement sweeps pay O(numParts) work per vertex.
func (Multilevel) MultiPass() (passes, heuristicPasses int, why string) {
	return 3, 1, "coarsens the whole graph by heavy-edge matching, partitions the coarse graph, and projects labels back through refinement sweeps — offline by construction"
}

// mlEdge is one weighted undirected edge of a coarsening level
// (u < v; parallel edges are merged, self-loops dropped).
type mlEdge struct {
	u, v int32
	w    int64
}

// mlLevel is one graph in the coarsening hierarchy.
type mlLevel struct {
	n     int
	edges []mlEdge
	vw    []int64 // original vertices folded into each coarse vertex
}

// Partition implements Strategy.
func (ml Multilevel) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	n := g.NumVertices()
	labels := ml.vertexLabels(g, numParts)

	// Convert the vertex partitioning to an edge placement: internal edges
	// live with their endpoints, cut edges go to the lighter of the two
	// homes (ties to the lower partition id), streamed in edge order so the
	// split is deterministic and load-aware.
	parts := make([]int32, g.NumEdges())
	load := make([]int64, numParts)
	for i, e := range g.Edges {
		lu, lv := labels[e.Src], labels[e.Dst]
		p := lu
		if lu != lv && (load[lv] < load[lu] || (load[lv] == load[lu] && lv < lu)) {
			p = lv
		}
		parts[i] = p
		load[p]++
	}
	hint := make([]int32, n)
	copy(hint, labels)
	return &Result{EdgeParts: parts, MasterHint: hint}, nil
}

// vertexLabels runs the coarsen → partition → uncoarsen pipeline and
// returns each vertex's home partition.
func (Multilevel) vertexLabels(g *graph.Graph, numParts int) []int32 {
	target := 8 * numParts
	if target < 64 {
		target = 64
	}

	// Level 0: the input graph, normalized to weighted undirected form.
	base := &mlLevel{n: g.NumVertices(), vw: make([]int64, g.NumVertices())}
	for i := range base.vw {
		base.vw[i] = 1
	}
	raw := make([]mlEdge, 0, g.NumEdges())
	for _, e := range g.Edges {
		u, v := int32(e.Src), int32(e.Dst)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		raw = append(raw, mlEdge{u: u, v: v, w: 1})
	}
	base.edges = mergeEdges(raw)

	levels := []*mlLevel{base}
	var maps [][]int32 // maps[i]: level i vertex → level i+1 vertex
	for levels[len(levels)-1].n > target {
		cur := levels[len(levels)-1]
		next, mapTo := coarsen(cur)
		if next.n >= cur.n || cur.n-next.n < cur.n/20 {
			break // matching stalled; further levels would not shrink
		}
		levels = append(levels, next)
		maps = append(maps, mapTo)
	}

	// Initial partition of the coarsest level: heaviest vertices first,
	// each to the lightest partition — balanced by construction, locality
	// left to the refinement sweeps.
	coarsest := levels[len(levels)-1]
	order := make([]int32, coarsest.n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if coarsest.vw[order[i]] != coarsest.vw[order[j]] {
			return coarsest.vw[order[i]] > coarsest.vw[order[j]]
		}
		return order[i] < order[j]
	})
	labels := make([]int32, coarsest.n)
	pw := make([]int64, numParts)
	for _, v := range order {
		best := 0
		for p := 1; p < numParts; p++ {
			if pw[p] < pw[best] {
				best = p
			}
		}
		labels[v] = int32(best)
		pw[best] += coarsest.vw[v]
	}
	refine(coarsest, labels, numParts)

	// Uncoarsen: project labels down one level at a time, refining at each.
	for li := len(levels) - 2; li >= 0; li-- {
		lvl := levels[li]
		fine := make([]int32, lvl.n)
		for v := 0; v < lvl.n; v++ {
			fine[v] = labels[maps[li][v]]
		}
		labels = fine
		refine(lvl, labels, numParts)
	}
	return labels
}

// coarsen contracts one level by heavy-edge matching: edges in weight order
// (heaviest first, lowest endpoint ids on ties) match their endpoints when
// both are still free; unmatched vertices survive alone.
func coarsen(cur *mlLevel) (*mlLevel, []int32) {
	byWeight := make([]mlEdge, len(cur.edges))
	copy(byWeight, cur.edges)
	sort.Slice(byWeight, func(i, j int) bool {
		if byWeight[i].w != byWeight[j].w {
			return byWeight[i].w > byWeight[j].w
		}
		if byWeight[i].u != byWeight[j].u {
			return byWeight[i].u < byWeight[j].u
		}
		return byWeight[i].v < byWeight[j].v
	})
	match := make([]int32, cur.n)
	for i := range match {
		match[i] = -1
	}
	for _, e := range byWeight {
		if match[e.u] < 0 && match[e.v] < 0 {
			match[e.u], match[e.v] = e.v, e.u
		}
	}

	// Coarse ids in fine-id order: a matched pair takes the lower
	// endpoint's slot, singletons keep their own.
	mapTo := make([]int32, cur.n)
	nextID := int32(0)
	for v := 0; v < cur.n; v++ {
		if m := match[v]; m >= 0 && int(m) < v {
			mapTo[v] = mapTo[m]
			continue
		}
		mapTo[v] = nextID
		nextID++
	}
	next := &mlLevel{n: int(nextID), vw: make([]int64, nextID)}
	for v := 0; v < cur.n; v++ {
		next.vw[mapTo[v]] += cur.vw[v]
	}
	contracted := make([]mlEdge, 0, len(cur.edges))
	for _, e := range cur.edges {
		u, v := mapTo[e.u], mapTo[e.v]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		contracted = append(contracted, mlEdge{u: u, v: v, w: e.w})
	}
	next.edges = mergeEdges(contracted)
	return next, mapTo
}

// mergeEdges sorts edges by endpoint pair and folds parallel edges into one
// with summed weight.
func mergeEdges(edges []mlEdge) []mlEdge {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].u == e.u && out[len(out)-1].v == e.v {
			out[len(out)-1].w += e.w
			continue
		}
		out = append(out, e)
	}
	return out
}

// refine runs two greedy boundary sweeps over one level: each vertex in id
// order moves to the partition holding the most incident edge weight,
// provided the move strictly improves locality and keeps the destination
// under the balance cap (15% over the mean vertex weight).
func refine(lvl *mlLevel, labels []int32, numParts int) {
	if numParts < 2 || lvl.n == 0 {
		return
	}
	// CSR adjacency over the level's undirected edges.
	deg := make([]int32, lvl.n)
	for _, e := range lvl.edges {
		deg[e.u]++
		deg[e.v]++
	}
	start := make([]int32, lvl.n+1)
	for v := 0; v < lvl.n; v++ {
		start[v+1] = start[v] + deg[v]
	}
	type half struct {
		to int32
		w  int64
	}
	adj := make([]half, start[lvl.n])
	cursor := make([]int32, lvl.n)
	copy(cursor, start[:lvl.n])
	for _, e := range lvl.edges {
		adj[cursor[e.u]] = half{to: e.v, w: e.w}
		cursor[e.u]++
		adj[cursor[e.v]] = half{to: e.u, w: e.w}
		cursor[e.v]++
	}

	var total int64
	pw := make([]int64, numParts)
	for v := 0; v < lvl.n; v++ {
		pw[labels[v]] += lvl.vw[v]
		total += lvl.vw[v]
	}
	capW := total/int64(numParts) + total/int64(numParts*7) + 1 // ≈1.14× mean

	gain := make([]int64, numParts)
	touched := make([]int32, 0, numParts)
	for sweep := 0; sweep < 2; sweep++ {
		moved := false
		for v := 0; v < lvl.n; v++ {
			touched = touched[:0]
			for _, h := range adj[start[v]:start[v+1]] {
				p := labels[h.to]
				if gain[p] == 0 {
					touched = append(touched, p)
				}
				gain[p] += h.w
			}
			cur := labels[v]
			best, bestGain := cur, gain[cur]
			for _, p := range touched {
				if gain[p] > bestGain || (gain[p] == bestGain && best != cur && p < best) {
					best, bestGain = p, gain[p]
				}
			}
			if best != cur && gain[best] > gain[cur] && pw[best]+lvl.vw[v] <= capW {
				pw[cur] -= lvl.vw[v]
				pw[best] += lvl.vw[v]
				labels[v] = best
				moved = true
			}
			for _, p := range touched {
				gain[p] = 0
			}
		}
		if !moved {
			break
		}
	}
}
