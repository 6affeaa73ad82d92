// Package oracle recomputes what the partitioners and engines compute from
// nothing but an edge list, with loops of its own: the applications' answers
// (PageRank in both halting modes, BFS distances, weakly connected
// components, k-core numbers, whether a coloring is proper) and the
// vertex-cut bookkeeping of a per-edge placement (Cut). It reads no CSR and
// shares no code with the product, so a bug in the sharded supersteps, the
// adjacency indexes or the replica matrices cannot hide in both. Only tests
// import it (a forbid row).
package oracle

import (
	"math"
	"slices"

	"graphpart/internal/graph"
)

// PageRank iterates p(v) = (1−d) + d·Σ p(u)/outdeg(u) over in-edges from
// p = 1, every vertex updated from the previous iteration's values. With
// activeSet false every vertex is recomputed in each of iters iterations (the
// GAS engines' fixed-iteration mode). With activeSet true it halts the way a
// convergent run does: only active vertices recompute, a vertex whose value
// moved by more than tol activates its out-neighbours, and the loop ends
// early when nothing is active.
func PageRank(n int, edges []graph.Edge, d, tol float64, iters int, activeSet bool) []float64 {
	outDeg, acc, p := make([]float64, n), make([]float64, n), make([]float64, n)
	active, changed := make([]bool, n), make([]bool, n)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	for v := range p {
		p[v], active[v] = 1, true
	}
	for it := 0; it < iters; it++ {
		clear(acc)
		for _, e := range edges {
			if active[e.Dst] {
				acc[e.Dst] += p[e.Src] / outDeg[e.Src]
			}
		}
		for v := range p {
			if changed[v] = false; active[v] {
				next := (1 - d) + d*acc[v]
				changed[v] = math.Abs(next-p[v]) > tol
				p[v] = next
			}
		}
		if activeSet {
			clear(active)
			for _, e := range edges {
				active[e.Dst] = active[e.Dst] || changed[e.Src]
			}
			if !slices.Contains(active, true) {
				break
			}
		}
	}
	return p
}

// BFS returns hop distances from src, +Inf where unreachable: along edge
// direction when directed, over either direction otherwise. It is what SSSP
// with unit weights converges to.
func BFS(n int, edges []graph.Edge, src graph.VertexID, directed bool) []float64 {
	nbrs := incidence(n, edges, directed)
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	for queue := []graph.VertexID{src}; len(queue) > 0; queue = queue[1:] {
		for _, w := range nbrs[queue[0]] {
			if math.IsInf(dist[w], 1) {
				dist[w] = dist[queue[0]] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// WCC labels every vertex with the smallest id in its weakly connected
// component, by union-find over the edges.
func WCC(n int, edges []graph.Edge) []graph.VertexID {
	root := make([]graph.VertexID, n)
	for v := range root {
		root[v] = graph.VertexID(v)
	}
	find := func(v graph.VertexID) graph.VertexID {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	for _, e := range edges {
		a, b := find(e.Src), find(e.Dst)
		root[max(a, b)] = min(a, b)
	}
	for v := range root {
		root[v] = find(graph.VertexID(v))
	}
	return root
}

// KCore peels the graph, edge direction ignored and a self loop counting
// twice, and returns each vertex's core number capped at kmax: the largest
// k ≤ kmax whose k-core holds the vertex, or kmin−1 when not even the
// kmin-core does.
func KCore(n int, edges []graph.Edge, kmin, kmax int) []int {
	nbrs := incidence(n, edges, false)
	deg, core, removed := make([]int, n), make([]int, n), make([]bool, n)
	for v := range core {
		deg[v], core[v] = len(nbrs[v]), kmin-1
	}
	var doomed []graph.VertexID
	peel := func(v graph.VertexID, k int) {
		if !removed[v] && deg[v] < k {
			removed[v] = true
			doomed = append(doomed, v)
		}
	}
	for k := kmin; k <= kmax; k++ {
		for v := range deg {
			peel(graph.VertexID(v), k)
		}
		for len(doomed) > 0 {
			v := doomed[len(doomed)-1]
			doomed = doomed[:len(doomed)-1]
			for _, u := range nbrs[v] {
				deg[u]--
				peel(u, k)
			}
		}
		for v := range core {
			if !removed[v] {
				core[v] = k
			}
		}
	}
	return core
}

// ProperColoring reports whether no edge joins two endpoints of one color,
// self loops aside: a coloring has many right answers, so the oracle judges
// one instead of computing one.
func ProperColoring(edges []graph.Edge, colors []int32) bool {
	for _, e := range edges {
		if e.Src != e.Dst && colors[e.Src] == colors[e.Dst] {
			return false
		}
	}
	return true
}

// incidence lists, per vertex, the far end of every edge leaving it and,
// unless directed, of every edge entering it too.
func incidence(n int, edges []graph.Edge, directed bool) [][]graph.VertexID {
	nbrs := make([][]graph.VertexID, n)
	for _, e := range edges {
		nbrs[e.Src] = append(nbrs[e.Src], e.Dst)
		if !directed {
			nbrs[e.Dst] = append(nbrs[e.Dst], e.Src)
		}
	}
	return nbrs
}
