package partition

import (
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// swapRounds is how many refinement rounds JaBeJaSwap runs: enough for the
// acceptance rate to decay to noise on the synthetic power-law graphs while
// keeping ingress a small multiple of the base assignment's.
const swapRounds = 4

// JaBeJaSwap is a JA-BE-JA-style refinement partitioner (arXiv 1403.6270):
// it first places every edge with Random, the paper's baseline for every
// system, then runs seeded rounds of pairwise edge-partition swaps. Each
// round scans the edge list once; edge i proposes swapping partitions with
// a pseudo-randomly chosen partner edge j, and the swap is kept only when
// it strictly reduces the total vertex-image count. Because a swap moves
// one edge from p to q and one from q to p, the per-partition edge counts —
// and therefore the balance — are invariants of refinement: JA-BE-JA's
// defining property. Replication factor is monotonically non-increasing
// across rounds; the annealing temperature is zero (no uphill moves),
// keeping every run deterministic and every round an improvement.
type JaBeJaSwap struct{}

// SwapStats reports what one JaBeJaSwap refinement did: how many swaps each
// round proposed and accepted, and the replication factor before and after.
type SwapStats struct {
	Rounds   int
	Proposed int
	Accepted int
	RFBefore float64
	RFAfter  float64
}

// Name implements Strategy.
func (JaBeJaSwap) Name() string { return "JaBeJaSwap" }

// MultiPass implements MultiPassStrategy: the base assignment must be
// complete before any swap can be evaluated, and every refinement round is
// another full scan of the edge list.
func (JaBeJaSwap) MultiPass() (passes, heuristicPasses int, why string) {
	// Passes and HeuristicPasses do not depend on the partition count.
	base := ShapeOf(random, 1)
	return base.Passes + swapRounds, base.HeuristicPasses, "refines a completed base assignment with whole-edge-list swap rounds; no edge's final home is known until the last round ends"
}

// Partition implements Strategy.
func (jb JaBeJaSwap) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	res, _, err := jb.PartitionStats(g, numParts, seed)
	return res, err
}

// PartitionStats is Partition plus the refinement statistics: the round
// count, proposal/acceptance totals, and the replication factor the base
// assignment had before any swap ran.
func (JaBeJaSwap) PartitionStats(g *graph.Graph, numParts int, seed uint64) (*Result, SwapStats, error) {
	stats := SwapStats{Rounds: swapRounds}
	res, err := random.Partition(g, numParts, seed)
	if err != nil {
		return nil, stats, err
	}
	n := g.NumVertices()
	m := g.NumEdges()
	parts := res.EdgeParts

	// Per-(vertex, partition) incidence counts: the number of live edges of
	// v on p. A count's 0↔nonzero transition is a vertex image appearing or
	// vanishing, which is what lets a swap's replication delta be computed
	// exactly in O(1).
	counts := make([]int32, n*numParts)
	totalImages := int64(0)
	placed := int64(0)
	for i, e := range g.Edges {
		p := parts[i]
		counts[int(e.Src)*numParts+int(p)]++
		counts[int(e.Dst)*numParts+int(p)]++
	}
	for v := 0; v < n; v++ {
		row := counts[v*numParts : (v+1)*numParts]
		images := int64(0)
		for _, c := range row {
			if c > 0 {
				images++
			}
		}
		if images > 0 {
			placed++
			totalImages += images
		}
	}
	if placed > 0 {
		stats.RFBefore = float64(totalImages) / float64(placed)
	}

	// move relocates edge e from partition `from` to `to` in the incidence
	// counts and returns the image delta. Applying a move and its inverse
	// is an exact rollback, so rejected swaps cost two moves each way.
	move := func(e graph.Edge, from, to int32) int64 {
		var d int64
		for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
			fi := int(v)*numParts + int(from)
			ti := int(v)*numParts + int(to)
			counts[fi]--
			if counts[fi] == 0 {
				d--
			}
			counts[ti]++
			if counts[ti] == 1 {
				d++
			}
		}
		return d
	}

	for r := 0; r < stats.Rounds && m > 0 && numParts > 1; r++ {
		rng := hashing.NewRNG(hashing.Combine(seed^0x6a62, uint64(r)))
		for i := 0; i < m; i++ {
			j := rng.Intn(m)
			p, q := parts[i], parts[j]
			if i == j || p == q {
				continue
			}
			stats.Proposed++
			d := move(g.Edges[i], p, q) + move(g.Edges[j], q, p)
			if d < 0 {
				parts[i], parts[j] = q, p
				totalImages += d
				stats.Accepted++
			} else {
				move(g.Edges[j], p, q)
				move(g.Edges[i], q, p)
			}
		}
	}
	if placed > 0 {
		stats.RFAfter = float64(totalImages) / float64(placed)
	}
	return &Result{EdgeParts: parts}, stats, nil
}
