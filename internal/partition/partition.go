// Package partition implements the paper's primary subject: the thirteen
// partitioning strategies shipped by PowerGraph, PowerLyra and GraphX
// (Table 1.1 plus the thesis's 1D-Target variant and resilient Grid), and
// the vertex-cut bookkeeping — edge assignments, vertex replicas, masters,
// replication factor, and balance — that every engine and experiment is
// built on.
//
// # Ingress capabilities
//
// Strategies are dispatched by capability, never by name, and the
// capability is the only statement of a strategy's ingress shape — how many
// passes it makes over the edge list and how many of them score every
// partition. Beyond the base Strategy interface (Name and Partition), every
// strategy implements exactly one of:
//
//   - StatelessStrategy: placement is a pure per-edge function (the hash
//     family: Random, CanonicalRandom, AsymRandom, 1D, 1D-Target, 2D, Grid,
//     ResilientGrid, PDS). The edge stream shards arbitrarily across
//     workers; per-vertex master hints, when produced, come from the
//     assigner's MasterHinter per vertex shard. One pass, none heuristic.
//   - StreamingStrategy: single-pass greedy ingress over independent
//     per-loader state (Oblivious, HDRF), matching the paper's
//     one-loader-per-machine semantics (§5.2.2). Loader blocks run
//     concurrently and the result is identical to the sequential pass. One
//     pass, and it is heuristic.
//   - MultiPassStrategy: cannot stream in one bounded-memory pass (Hybrid,
//     H-Ginger, HEP, JaBeJaSwap, Multilevel); declares its pass structure
//     and the reason.
//
// ShapeOf folds these into an IngressShape — it consults nothing else — and
// ParallelPartition stamps it on the Assignment it builds, which is where
// the cost models read it.
//
// A strategy is built by name only, through New or MustNew, which look the
// name up in one literal table (registry.go's strategies): nothing registers
// itself, and every row declares exactly one capability (the conformance
// suite checks each). The nine hash strategies are package-level rows of one
// unexported type, so New hands them out without allocating. Only HDRF and
// JaBeJaSwap export their types, for what Options does not carry: HDRF's λ
// and JaBeJaSwap's PartitionStats.
//
// Whatever the capability, one interface places an edge: Assigner. A
// stateless strategy's NewAssigner, a streaming strategy's NewLoader and
// the persistent assigner a PartitionState churns through (AsIncremental)
// all return one; MasterHinter and DeleteObserver are the two optional
// extras an Assigner may also implement.
//
// # One driver, one builder, one table
//
// Ingress runs either materialized — ParallelPartition produces an
// Assignment over an in-memory graph; Partition is its one-worker call — or
// streamed: a ShardedStreamBuilder consumes EdgeBatch chunks for a stateless
// strategy in O(|V|·P/8) memory per worker without ever holding the edge
// list. Every fan-out is par.Do, so sequential is the workers = 1 case of
// the same code, never a second implementation; the builder's consumer
// goroutines are a pipeline, not a fan-out, and are its own.
//
// All of them fill the same bookkeeping, the unexported cutTable: the
// replica bit-matrix, the masters and the metrics.Quality summary, with the
// read accessors and the master rule declared once. Assignment adds the
// edge placements and in/out matrices, StreamSummary adds nothing, and
// PartitionState — the mutable partitioning of a churning graph — adds the
// endpoint reference counts that make replica sets decrementable (32× the
// bits, which is why the one-shot holders never carry them) and the live
// edges.
package partition

import (
	"fmt"
	"slices"

	"graphpart/internal/graph"
	"graphpart/internal/par"
)

// Result is what a Strategy produces: a partition id per edge, and
// optionally a preferred master partition per vertex (PowerLyra's Hybrid
// family places low-degree masters with their in-edges; -1 or a missing
// hint means "pick the default master").
type Result struct {
	EdgeParts  []int32
	MasterHint []int32 // optional; len 0 or NumVertices
}

// Strategy assigns every edge of a graph to one of numParts partitions.
// Implementations must be deterministic for a given seed. How a strategy
// consumes the edge stream is stated by its capability interface
// (StatelessStrategy, StreamingStrategy or MultiPassStrategy), not here.
type Strategy interface {
	// Name returns the strategy's display name as used in the paper.
	Name() string
	// Partition assigns edges to partitions.
	Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error)
}

// Assignment is a fully-materialized vertex-cut partitioning of a graph:
// every edge placed on a partition, replica sets and masters derived, and
// the paper's quality metrics precomputed. The replica table, masters and
// quality summary are the shared cutTable core; Assignment adds the edge
// placements and the per-direction matrices the engines' locality tests read.
type Assignment struct {
	G        *graph.Graph
	NumParts int
	Strategy string
	// Shape is the ingress shape of the strategy that built the assignment
	// (ShapeOf at NumParts); the cost models price ingress from it.
	Shape IngressShape

	EdgeParts []int32
	Masters   []int32 // -1 for isolated vertices (the core's slice)
	EdgeCount []int64 // edges per partition (aliases the quality summary)

	cutTable
	inEdgeParts  *bitMatrix // partitions holding ≥1 in-edge of v
	outEdgeParts *bitMatrix // partitions holding ≥1 out-edge of v
}

// Partition runs a strategy against a graph and materializes the result on
// the calling goroutine: it is ParallelPartition at one worker, the same
// code path at every worker count.
func Partition(g *graph.Graph, s Strategy, numParts int, seed uint64) (*Assignment, error) {
	return ParallelPartition(g, s, numParts, seed, 1)
}

// newAssignment materializes a strategy result into an Assignment using the
// given number of workers (≥1; 1 runs inline). Worker count never changes the
// result, only wall-clock.
func newAssignment(g *graph.Graph, s Strategy, numParts int, seed uint64, res *Result, workers int) (*Assignment, error) {
	if len(res.EdgeParts) != g.NumEdges() {
		return nil, fmt.Errorf("partition: strategy %s returned %d assignments for %d edges",
			s.Name(), len(res.EdgeParts), g.NumEdges())
	}
	n := g.NumVertices()
	a := &Assignment{
		G:            g,
		NumParts:     numParts,
		Strategy:     s.Name(),
		Shape:        ShapeOf(s, numParts),
		EdgeParts:    res.EdgeParts,
		cutTable:     newCutTable(n, numParts, seed),
		inEdgeParts:  newBitMatrix(n, numParts),
		outEdgeParts: newBitMatrix(n, numParts),
	}
	a.EdgeCount = a.q.EdgeCounts()
	if err := a.place(workers); err != nil {
		return nil, err
	}
	var hint func(graph.VertexID) int32
	if len(res.MasterHint) == n {
		hint = func(v graph.VertexID) int32 { return res.MasterHint[v] }
	}
	a.deriveMasters(n, workers, hint)
	a.Masters = a.masters
	return a, nil
}

// place validates EdgeParts and fills the edge counts and the
// replica/in/out bit-matrices in three phases. Workers validate and count
// their own edge range, each stopping at its first out-of-range placement;
// the lowest bad index is the error, and nothing is set before all pass.
// Then one shard sets every out-edge bit and another every in-edge bit: the
// two write different matrices, so they need no range test and no atomic,
// and at one worker both run inline. Last, workers derive their vertex
// range's replicas as in|out (an assignment pins no images).
func (a *Assignment) place(workers int) error {
	edges, parts, numParts := a.G.Edges, a.EdgeParts, a.NumParts
	m := len(parts)
	reps, in, out := a.replicas, a.inEdgeParts, a.outEdgeParts
	counts, bad := make([][]int64, workers), make([]int, workers)
	par.Do(workers, workers, func(w, _ int) {
		lo, hi := par.Range(m, workers, w)
		local := make([]int64, numParts)
		bad[w] = m
		for i, p := range parts[lo:hi] {
			if p < 0 || int(p) >= numParts {
				bad[w] = lo + i
				return
			}
			local[p]++
		}
		counts[w] = local
	})
	if first := slices.Min(bad); first < m {
		return fmt.Errorf("partition: strategy %s placed edge %d on partition %d (numParts=%d)",
			a.Strategy, first, parts[first], numParts)
	}
	par.Do(workers, 2, func(dir, _ int) {
		if dir == 0 {
			for i, e := range edges {
				out.set(int(e.Src), int(parts[i]))
			}
			return
		}
		for i, e := range edges {
			in.set(int(e.Dst), int(parts[i]))
		}
	})
	par.Do(workers, workers, func(w, _ int) {
		lo, hi := par.Range(len(reps.bits), workers, w)
		for i := lo; i < hi; i++ {
			reps.bits[i] = in.bits[i] | out.bits[i]
		}
	})
	for _, local := range counts {
		for p, c := range local {
			a.q.AddEdges(p, c)
		}
	}
	return nil
}

// Rows returns v's placement in the shape it is stored: the words of its
// replica, in-edge and out-edge partition sets, partition p at bit p%64 of
// word p/64. An assignment pins no images, so replicas is the union of in and
// out. The slices are shared; do not modify.
func (a *Assignment) Rows(v graph.VertexID) (replicas, in, out []uint64) {
	return a.replicas.row(int(v)), a.inEdgeParts.row(int(v)), a.outEdgeParts.row(int(v))
}
