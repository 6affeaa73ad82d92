package partition

import (
	"errors"

	"graphpart/internal/graph"
)

// ErrFeedAfterFinish is returned by ShardedStreamBuilder.Feed once Finish
// has been called: the summary has been derived and the builder accepts no
// more edges.
var ErrFeedAfterFinish = errors.New("partition: Feed after Finish")

// EdgeBatch is one chunk of an edge stream: a run of edges plus the global
// offset of Edges[0] within the stream. Batches are how the ingress pipeline
// moves edges between loaders, strategies and the assignment builder without
// ever requiring the whole edge list in memory.
type EdgeBatch struct {
	Offset int64
	Edges  []graph.Edge
}

// Assigner is the one per-edge placer: Assign returns the partition of the
// next edge. Stateless strategies build pure ones (NewAssigner: the answer
// depends only on the edge, never on call order, which is what makes
// stateless ingress embarrassingly parallel); streaming strategies build
// loaders (NewLoader: Assign consumes the loader's share of the stream in
// order and updates its private placement sets, loads and partial degrees,
// as the paper's "oblivious" ingress does, §5.2.2); and a PartitionState
// keeps one across churn batches (AsIncremental). Assigners may carry
// scratch or state and are NOT safe for concurrent use; create one per
// goroutine.
type Assigner interface {
	Assign(e graph.Edge) int32
}

// DeleteObserver is implemented by Assigners whose state should follow
// deletions as well as adds (the greedy loaders' loads and partial
// degrees). A PartitionState tells it about every edge it removes; pure
// assigners have nothing to update and do not implement it.
type DeleteObserver interface {
	// ObserveDelete reports that edge e, previously placed on p, is gone.
	ObserveDelete(e graph.Edge, p int32)
}

// MasterHinter is implemented by Assigners whose strategy also emits a
// per-vertex master hint (a pure function of the vertex id, e.g. 1D-Target's
// hash-by-target). Hints are produced per vertex shard by the parallel
// pipeline; no full sequential re-partition is ever needed. Unlike Assign,
// MasterHint must be safe for concurrent use: the stream builder's Finish
// calls one assigner's MasterHint from several goroutines at once.
type MasterHinter interface {
	MasterHint(v graph.VertexID) int32
}

// StatelessStrategy is the capability of the whole hash family (Random,
// CanonicalRandom, AsymRandom, 1D, 1D-Target, 2D, Grid, ResilientGrid, PDS):
// edge placement is a pure function of the edge, so the edge stream can be
// sharded arbitrarily across workers with no coordination and no state.
type StatelessStrategy interface {
	Strategy
	// NewAssigner builds the per-edge placement function for (numParts,
	// seed), returning an error for invalid partition counts (Grid's
	// perfect-square requirement, PDS's p²+p+1 requirement).
	NewAssigner(numParts int, seed uint64) (Assigner, error)
}

// StreamingStrategy is the capability of the greedy single-pass family
// (Oblivious, HDRF): ingress runs as numLoaders *independent* loaders, each
// streaming a contiguous block of the edge list with its own private state
// and no cross-loader coordination — exactly the paper's multi-machine
// ingress semantics (§5.2.2). Because loaders never share state, the blocks
// can run concurrently and the result is identical to the sequential pass.
type StreamingStrategy interface {
	Strategy
	// Loaders returns the number of independent loader states used when
	// partitioning into numParts partitions (the paper runs one loader per
	// machine; the default is one per partition).
	Loaders(numParts int) int
	// NewLoader builds loader #id of Loaders(numParts) with its own seed
	// stream and private state, pre-sized for numVertices vertices (it
	// grows when the stream names a higher id), returning an error for
	// parameters the strategy refuses (HDRF's λ).
	NewLoader(numVertices, numParts, id int, seed uint64) (Assigner, error)
}

// MultiPassStrategy is the capability of strategies that cannot consume the
// edge stream in a single bounded-memory pass (Hybrid, H-Ginger, HEP,
// JaBeJaSwap, Multilevel). MultiPass declares the pass structure — total
// scans over the edge list, how many of them pay O(numParts) greedy scoring
// per edge — and why single-pass streaming is impossible, so schedulers and
// the ingress model need no per-name knowledge.
type MultiPassStrategy interface {
	Strategy
	MultiPass() (passes, heuristicPasses int, why string)
}

// IngressShape describes how a strategy consumes the edge stream during
// ingress, derived entirely from its capability interfaces. The cluster
// ingress model and scheduling decisions are functions of this shape, never
// of strategy names.
type IngressShape struct {
	// Passes is the number of full scans over the edge list.
	Passes int
	// HeuristicPasses is how many of those passes pay O(numParts) greedy
	// scoring per edge (0 for pure hash strategies).
	HeuristicPasses int
	// Streaming reports single-pass bounded-memory stream consumption.
	Streaming bool
	// Loaders is the number of independent loader states (0 when the
	// strategy keeps no per-loader state).
	Loaders int
	// MultiPassReason is non-empty for multi-pass strategies: why the
	// strategy cannot stream in one pass.
	MultiPassReason string
}

// ShapeOf derives a strategy's ingress shape from its capability and from
// nothing else: StatelessStrategy → one hash pass; StreamingStrategy → one
// heuristic pass over independent sharded loaders; MultiPassStrategy →
// whatever the strategy declares. A strategy with no capability — which
// ParallelPartition rejects and no table row builds — has the zero shape.
func ShapeOf(s Strategy, numParts int) IngressShape {
	switch impl := s.(type) {
	case StatelessStrategy:
		return IngressShape{Passes: 1, Streaming: true}
	case StreamingStrategy:
		return IngressShape{Passes: 1, HeuristicPasses: 1, Streaming: true, Loaders: impl.Loaders(numParts)}
	case MultiPassStrategy:
		p, hp, why := impl.MultiPass()
		return IngressShape{Passes: p, HeuristicPasses: hp, MultiPassReason: why}
	}
	return IngressShape{}
}

// loaderBlock returns the contiguous edge-index range [lo, hi) streamed by
// loader id when m edges are striped over numLoaders loaders: edge i belongs
// to loader ⌊i·numLoaders/m⌋, matching PowerGraph's "split into as many
// blocks as there are machines" ingress (§5.3).
func loaderBlock(m, numLoaders, id int) (lo, hi int) {
	lo = (id*m + numLoaders - 1) / numLoaders
	hi = ((id+1)*m + numLoaders - 1) / numLoaders
	return lo, hi
}

// StreamSummary is the outcome of a streamed ingress: everything Assignment
// offers that does not require the materialized edge list — the cutTable
// core and nothing else.
type StreamSummary struct {
	Strategy    string
	NumParts    int
	NumVertices int
	NumEdges    int64
	EdgeCount   []int64 // edges per partition (aliases the quality summary)
	Masters     []int32 // -1 for isolated vertices (the core's slice)

	cutTable
}
