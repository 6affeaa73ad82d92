package partition

import (
	"errors"
	"fmt"

	"graphpart/internal/graph"
)

// liveEdge is one live edge of a PartitionState: the edge, the partition
// it currently lives on, and the live positions of the next older and next
// newer copy of the same edge (-1 for none).
type liveEdge struct {
	e          graph.Edge
	p          int32
	prev, next int32
}

// edgeKey packs an edge into the key of the live-edge index.
func edgeKey(e graph.Edge) uint64 {
	return uint64(e.Src)<<32 | uint64(e.Dst)
}

// PartitionState is a long-lived, mutable partitioning of a churning graph —
// the counterpart of the frozen Assignment. It keeps every piece of
// vertex-cut bookkeeping incrementally maintainable:
//
//   - the live edge list with each edge's partition, an edgeIndex from each
//     edge to its newest live copy, and per-edge links to the older and
//     newer copies, so a duplicate edge deletes newest first in one probe
//     (the index's hash is randomly seeded; nothing iterates it, so no
//     result depends on the seed);
//   - per-vertex, per-partition endpoint reference counts (a bitMatrix can
//     say a vertex touches a partition but not when it stops — the counts
//     are what make the replica sets decrementable; at 32× the bits they
//     live here and never in the one-shot holders; a vertex's counts sum
//     to its live degree, a self-loop counting twice);
//   - the cutTable core — replica bit-matrix, masters and quality summary —
//     updated per image transition, so replication factor and edge balance
//     are O(1) reads after O(batch) updates, never recomputed from scratch.
//
// Edges are placed by the strategy's Assigner (AsIncremental: a stateless
// strategy's own, or one persistent Oblivious/HDRF loader).
// Multi-pass strategies cannot assign incrementally: for them every
// ApplyBatch folds the churn into the live set and repartitions it one-shot
// (rebuild), which is exactly the cost the dyn.* experiments compare
// incremental maintenance against.
//
// A PartitionState is single-goroutine. For an add-only trace its summary
// is identical to the one-shot path over the same edges in the same order.
type PartitionState struct {
	cutTable

	strategy Strategy
	workers  int

	inc    Assigner       // nil ⇒ repartition per batch (multi-pass)
	del    DeleteObserver // inc's, nil when deletes do not concern it
	hinter MasterHinter   // inc's, nil when it emits no hints
	greedy *greedyLoader  // inc, when it is a greedy loader
	sink   uint64         // sum of warm's loads, so they are not dead code

	n     int // vertex-space high-water mark (max id seen + 1)
	live  []liveEdge
	index edgeIndex // edge key → newest live copy

	ref *countMatrix // endpoint reference counts per (vertex, partition)
}

// BatchStats reports what one ApplyBatch did.
type BatchStats struct {
	Added   int
	Deleted int
	// Rebuilt is true when the batch was absorbed by a full repartition of
	// the live edge set (multi-pass strategies) rather than incrementally.
	Rebuilt bool
}

// NewPartitionState prepares an empty mutable partitioning for a strategy.
// workers bounds the parallelism of rebuild (≤0 means GOMAXPROCS).
func NewPartitionState(s Strategy, numParts int, seed uint64, workers int) (*PartitionState, error) {
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	st := &PartitionState{
		cutTable: newCutTable(0, numParts, seed),
		strategy: s,
		workers:  workers,
		index:    newEdgeIndex(),
		ref:      newCountMatrix(0, numParts),
	}
	if err := st.resetAssigner(); err != nil && !errors.Is(err, ErrNotIncremental) {
		return nil, err
	}
	return st, nil
}

// resetAssigner builds a fresh incremental assigner for the state's strategy
// and resolves its optional capabilities once, not per edge.
func (st *PartitionState) resetAssigner() error {
	inc, err := AsIncremental(st.strategy, st.numParts, st.seed)
	if err != nil {
		return err
	}
	st.inc = inc
	st.del, _ = inc.(DeleteObserver)
	st.hinter, _ = inc.(MasterHinter)
	st.greedy, _ = inc.(*greedyLoader)
	return nil
}

// ApplyBatch folds one churn batch — deletions first, then additions — into
// the state in O(batch) (amortized). A multi-pass strategy has no incremental
// assigner: its batch is validated and folded into the live set the same way,
// minus the assigner calls, and then repartitioned one-shot (BatchStats.Rebuilt).
// Deleting an edge that is not live is an error and aborts the batch
// mid-way; duplicate edges delete one copy per request, newest first.
func (st *PartitionState) ApplyBatch(adds, dels []graph.Edge) (BatchStats, error) {
	stats := BatchStats{Rebuilt: st.inc == nil}
	st.warm(dels)
	st.warm(adds)
	for _, e := range dels {
		p, err := st.unlink(e)
		if err != nil {
			return stats, err
		}
		st.removeCopy(e, p)
		if st.del != nil {
			st.del.ObserveDelete(e, p)
		}
		stats.Deleted++
	}
	for _, e := range adds {
		st.ensure(int(max(e.Src, e.Dst)) + 1)
		p := int32(0) // multi-pass placeholder; rebuild assigns for real
		if st.inc != nil {
			p = st.inc.Assign(e)
			if p < 0 || int(p) >= st.numParts {
				return stats, fmt.Errorf("partition: strategy %s placed edge (%d,%d) on partition %d (numParts=%d)",
					st.strategy.Name(), e.Src, e.Dst, p, st.numParts)
			}
			st.placeCopy(e, p)
		}
		st.link(e, p)
		stats.Added++
	}
	if st.inc == nil {
		return stats, st.rebuild()
	}
	return stats, nil
}

// warm loads, without writing, the rows ApplyBatch will touch for es: each
// endpoint's ref row below the vertex space's end, each edge's index home
// slot and a greedy loader's rows. No load depends on another, so the core
// overlaps their cache misses instead of meeting them one edge at a time in
// the apply loop (group prefetching). The sum goes to the state's own sink:
// one shared by all states would be a data race between streams.
func (st *PartitionState) warm(es []graph.Edge) {
	sum := st.sink
	cols, counts, slots := st.ref.cols, st.ref.counts, st.index.slots
	for _, e := range es {
		if int(e.Src) < st.n {
			sum += uint64(counts[int(e.Src)*cols])
		}
		if int(e.Dst) < st.n {
			sum += uint64(counts[int(e.Dst)*cols])
		}
		if len(slots) > 0 {
			sum += uint64(slots[st.index.home(edgeKey(e))].pos)
		}
		if st.greedy != nil {
			sum += st.greedy.warm(e)
		}
	}
	st.sink = sum
}

// unlink removes one live copy of e (the most recently added) from the
// edge index and live list, returning the partition it lived on. The tail
// edge moves into the freed position, so whatever pointed at the tail — its
// index slot or its copies' links — is redirected there.
func (st *PartitionState) unlink(e graph.Edge) (int32, error) {
	key := edgeKey(e)
	pos := st.index.get(key)
	if pos < 0 {
		return -1, fmt.Errorf("partition: delete of edge (%d,%d) which is not live", e.Src, e.Dst)
	}
	gone := st.live[pos]
	if gone.prev >= 0 {
		st.live[gone.prev].next = -1
		st.index.set(key, gone.prev)
	} else {
		st.index.del(key)
	}
	last := int32(len(st.live) - 1)
	if pos != last {
		moved := st.live[last]
		st.live[pos] = moved
		if moved.prev >= 0 {
			st.live[moved.prev].next = pos
		}
		if moved.next >= 0 {
			st.live[moved.next].prev = pos
		} else {
			st.index.set(edgeKey(moved.e), pos)
		}
	}
	st.live = st.live[:last]
	return gone.p, nil
}

// link appends e as a live edge on partition p, the newest copy of e.
func (st *PartitionState) link(e graph.Edge, p int32) {
	pos := int32(len(st.live))
	prev := st.index.put(edgeKey(e), pos)
	if prev >= 0 {
		st.live[prev].next = pos
	}
	st.live = append(st.live, liveEdge{e: e, p: p, prev: prev, next: -1})
}

// ensure grows the vertex-space bookkeeping to cover at least n vertices.
func (st *PartitionState) ensure(n int) {
	if n <= st.n {
		return
	}
	st.ref.ensureRows(n)
	st.replicas.ensureRows(n)
	for len(st.masters) < n {
		st.masters = append(st.masters, -1)
	}
	st.n = n
}

// placeCopy accounts one edge landing on partition p: the edge count and
// both endpoints' incidence.
func (st *PartitionState) placeCopy(e graph.Edge, p int32) {
	st.q.AddEdge(int(p))
	st.addIncidence(int(e.Src), int(p))
	st.addIncidence(int(e.Dst), int(p))
}

// removeCopy undoes placeCopy.
func (st *PartitionState) removeCopy(e graph.Edge, p int32) {
	st.q.RemoveEdge(int(p))
	st.removeIncidence(int(e.Src), int(p))
	st.removeIncidence(int(e.Dst), int(p))
}

// addIncidence bumps v's endpoint count on p; the 0→1 transition creates an
// image.
func (st *PartitionState) addIncidence(v, p int) {
	if st.ref.inc(v, p) == 1 {
		st.gainImage(v, p)
	}
}

// removeIncidence drops v's endpoint count on p; the 1→0 transition removes
// the image.
func (st *PartitionState) removeIncidence(v, p int) {
	if st.ref.dec(v, p) == 0 {
		st.loseImage(v, p)
	}
}

// gainImage records vertex v gaining an image on partition p and keeps the
// quality summary and v's master current.
func (st *PartitionState) gainImage(v, p int) {
	st.replicas.set(v, p)
	st.q.AddReplica(p)
	if st.replicas.count(v) == 1 {
		st.q.VertexPlaced()
	}
	st.recomputeMaster(v, st.hinter)
}

// loseImage undoes gainImage.
func (st *PartitionState) loseImage(v, p int) {
	st.replicas.clear(v, p)
	st.q.RemoveReplica(p)
	if st.replicas.count(v) == 0 {
		st.q.VertexDropped()
	}
	st.recomputeMaster(v, st.hinter)
}

// rebuild repartitions the live edge set one-shot with the state's own
// strategy and replays the result into the incremental bookkeeping — the
// repartition-from-scratch baseline the dyn.* experiments price, and the
// only ingress path for multi-pass strategies. The incremental assigner is
// reconstructed afterwards: its per-loader state restarts from the rebuilt
// placement's graph, not the churn history.
func (st *PartitionState) rebuild() error {
	edges := make([]graph.Edge, len(st.live))
	for i := range st.live {
		edges[i] = st.live[i].e
	}
	g := graph.FromEdges("live", edges)
	a, err := ParallelPartition(g, st.strategy, st.numParts, st.seed, st.workers)
	if err != nil {
		return err
	}
	// Reset the derived bookkeeping and replay the fresh placement.
	st.q.Reset()
	st.ref.reset()
	st.replicas.reset()
	for i := range st.live {
		p := a.EdgeParts[i]
		st.live[i].p = p
		st.placeCopy(st.live[i].e, p)
	}
	// Take the assignment's masters verbatim: multi-pass hint vectors exist
	// only inside the one-shot build, so replay cannot re-derive them.
	copy(st.masters, a.Masters)
	for v := len(a.Masters); v < st.n; v++ {
		st.masters[v] = -1
	}
	if st.inc != nil {
		if err := st.resetAssigner(); err != nil {
			return err
		}
	}
	return nil
}

// --- summary accessors (the Assignment-compatible read side) -----------

// NumEdges returns the number of live edges.
func (st *PartitionState) NumEdges() int64 { return st.q.NumEdges() }

// NumVertices returns the vertex-space high-water mark (max id seen + 1);
// vertices whose edges were all deleted stay isolated, master -1.
func (st *PartitionState) NumVertices() int { return st.n }

// Incremental reports whether churn is absorbed incrementally (false for
// the multi-pass family, which repartitions per batch).
func (st *PartitionState) Incremental() bool { return st.inc != nil }

// EdgeCount returns the live per-partition edge counts (the summary's
// backing slice; do not modify).
func (st *PartitionState) EdgeCount() []int64 { return st.q.EdgeCounts() }

// LiveEdges returns a copy of the live edge set. For add-only histories the
// order is insertion order (the original stream); deletions swap edges from
// the tail, deterministically.
func (st *PartitionState) LiveEdges() []graph.Edge {
	out := make([]graph.Edge, len(st.live))
	for i := range st.live {
		out[i] = st.live[i].e
	}
	return out
}
