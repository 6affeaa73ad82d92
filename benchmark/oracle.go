package main

import (
	"math"
	"math/bits"

	"graphpart/internal/graph"
)

// The references below share no code with the engines or the partition
// bookkeeping: they work on the raw edge list with their own loops, so a
// bug in the sharded supersteps, the CSR indexes or the replica matrices
// cannot hide in both. They run during set-up, never in a timed window.

const (
	prDamping   = 0.85
	prTolerance = 1e-3 // app.DefaultTolerance, restated on purpose
	valueRelTol = 1e-9
)

// refPageRank iterates p(v) = (1−d) + d·Σ p(u)/outdeg(u) over in-edges,
// all vertices updated from the previous iteration's values. With
// activeSet false every vertex is recomputed in each of iters iterations
// (the GAS engines' fixed-iteration mode). With activeSet true it follows
// Pregel halting as GraphX runs it: only active vertices recompute, a
// vertex whose value moved by more than the tolerance activates its
// out-neighbours, and the loop ends early when nothing is active.
func refPageRank(n int, edges []graph.Edge, iters int, activeSet bool) []float64 {
	outDeg := make([]float64, n)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	p := make([]float64, n)
	active := make([]bool, n)
	for v := range p {
		p[v] = 1
		active[v] = true
	}
	acc := make([]float64, n)
	changed := make([]bool, n)
	for it := 0; it < iters; it++ {
		for v := range acc {
			acc[v] = 0
		}
		for _, e := range edges {
			if active[e.Dst] {
				acc[e.Dst] += p[e.Src] / outDeg[e.Src]
			}
		}
		live := false
		for v := range p {
			changed[v] = false
			if !active[v] {
				continue
			}
			next := (1 - prDamping) + prDamping*acc[v]
			changed[v] = math.Abs(next-p[v]) > prTolerance
			p[v] = next
		}
		if !activeSet {
			continue
		}
		for v := range active {
			active[v] = false
		}
		for _, e := range edges {
			if changed[e.Src] {
				active[e.Dst] = true
				live = true
			}
		}
		if !live {
			break
		}
	}
	return p
}

// refBFS returns undirected hop distances from src (+Inf when
// unreachable) — what SSSP with unit weights must converge to.
func refBFS(n int, edges []graph.Edge, src graph.VertexID) []float64 {
	start := make([]int32, n+1)
	for _, e := range edges {
		start[e.Src+1]++
		start[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	adj := make([]graph.VertexID, 2*len(edges))
	fill := append([]int32(nil), start[:n]...)
	for _, e := range edges {
		adj[fill[e.Src]] = e.Dst
		fill[e.Src]++
		adj[fill[e.Dst]] = e.Src
		fill[e.Dst]++
	}
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range adj[start[u]:start[u+1]] {
			if math.IsInf(dist[w], 1) {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// maxRelErr is the largest relative difference between got and want;
// +Inf when lengths differ or one side is infinite where the other is not.
func maxRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i, w := range want {
		g := got[i]
		if g == w {
			continue
		}
		if math.IsInf(g, 0) || math.IsInf(w, 0) || math.IsNaN(g) {
			return math.Inf(1)
		}
		if d := math.Abs(g-w) / math.Max(math.Abs(w), 1e-300); d > worst {
			worst = d
		}
	}
	return worst
}

// quality is the pair of partition-quality figures the paper reports.
type quality struct {
	RF      float64 // vertex images per placed vertex
	Balance float64 // max ÷ mean edges per partition
}

// refQuality recounts replication factor and edge balance from the
// per-edge placement alone, in O(E). numParts must be at most 64.
func refQuality(n, numParts int, edges []graph.Edge, edgeParts []int32) quality {
	images := make([]uint64, n)
	perPart := make([]int64, numParts)
	for i, e := range edges {
		p := edgeParts[i]
		perPart[p]++
		images[e.Src] |= 1 << uint(p)
		images[e.Dst] |= 1 << uint(p)
	}
	var total, placed int64
	for _, m := range images {
		if m != 0 {
			placed++
			total += int64(bits.OnesCount64(m))
		}
	}
	var maxEdges int64
	for _, c := range perPart {
		if c > maxEdges {
			maxEdges = c
		}
	}
	q := quality{}
	if placed > 0 {
		q.RF = float64(total) / float64(placed)
	}
	if len(edges) > 0 {
		q.Balance = float64(maxEdges) / (float64(len(edges)) / float64(numParts))
	}
	return q
}

// sameQuality allows only float rounding between two ways of dividing
// the same integers.
func sameQuality(a, b quality) bool {
	return relDiff(a.RF, b.RF) <= 1e-12 && relDiff(a.Balance, b.Balance) <= 1e-12
}

// placementSum is an order-sensitive checksum of a per-edge placement:
// two placements with the same sum are, for the benchmark's purposes, the
// same placement. It is much cheaper than a recount, which matters where a
// pass checks twelve assignments.
func placementSum(edgeParts []int32) uint64 {
	h := uint64(len(edgeParts))
	for _, p := range edgeParts {
		h = h*1099511628211 + uint64(uint32(p))
	}
	return h
}
