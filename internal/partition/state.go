package partition

import (
	"errors"
	"fmt"
	"sort"

	"graphpart/internal/graph"
)

// liveEdge is one live edge of a PartitionState: the edge plus the partition
// it currently lives on.
type liveEdge struct {
	e graph.Edge
	p int32
}

// edgeKey packs an edge into the map key used by the live-edge index.
func edgeKey(e graph.Edge) uint64 {
	return uint64(e.Src)<<32 | uint64(e.Dst)
}

// PartitionState is a long-lived, mutable partitioning of a churning graph —
// the counterpart of the frozen Assignment. It keeps every piece of
// vertex-cut bookkeeping incrementally maintainable:
//
//   - the live edge list with each edge's partition (and a multiset index,
//     so duplicate edges delete correctly);
//   - per-vertex, per-partition endpoint reference counts (a bitMatrix can
//     say a vertex touches a partition but not when it stops — the counts
//     are what make the replica sets decrementable; at 32× the bits they
//     live here and never in the one-shot holders);
//   - the cutTable core — replica bit-matrix, masters and quality summary —
//     updated per image transition, so replication factor and edge balance
//     are O(1) reads after O(batch) updates, never recomputed from scratch.
//
// Edges are placed by the strategy's Assigner (AsIncremental: a stateless
// strategy's own, or one persistent Oblivious/HDRF loader).
// Multi-pass strategies cannot assign incrementally: for them every
// ApplyBatch folds the churn into the live set and repartitions it one-shot
// (Rebuild), which is exactly the cost the dyn.* experiments compare
// incremental maintenance against.
//
// A PartitionState is single-goroutine. For an add-only trace its summary
// is identical to the one-shot path over the same edges in the same order.
type PartitionState struct {
	cutTable // replicas include pinned hot images

	strategy Strategy
	workers  int

	inc    Assigner       // nil ⇒ repartition per batch (multi-pass)
	del    DeleteObserver // inc's, nil when deletes do not concern it
	hinter MasterHinter   // inc's, nil when it emits no hints

	n     int // vertex-space high-water mark (max id seen + 1)
	live  []liveEdge
	index map[uint64][]int32 // edge key → positions in live, insertion order

	ref    *countMatrix // endpoint reference counts per (vertex, partition)
	pinned *bitMatrix   // hot-vertex images held beyond their edges
	deg    []int32      // live degree per vertex (drives hot selection)

	hotK int     // replicate the top-hotK degree vertices everywhere; 0 = off
	hot  []int32 // current hot set, ascending vertex id
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
// workers bounds the parallelism of Rebuild (≤0 means GOMAXPROCS).
func NewPartitionState(s Strategy, numParts int, seed uint64, workers int) (*PartitionState, error) {
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	st := &PartitionState{
		cutTable: newCutTable(0, numParts, seed),
		strategy: s,
		workers:  workers,
		index:    make(map[uint64][]int32),
		ref:      newCountMatrix(0, numParts),
		pinned:   newBitMatrix(0, numParts),
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
	return nil
}

// SetHotReplication replicates the k highest-degree live vertices onto
// every partition — the replicate-hot/partition-cold hybrid for the
// power-law tail. The hot set refreshes after every batch; images pinned
// for no-longer-hot vertices are dropped wherever no live edge holds them.
// k=0 (the default) disables pinning and hot-aware routing, keeping the
// incremental path placement-identical to one-shot ingress.
func (st *PartitionState) SetHotReplication(k int) {
	st.hotK = k
	st.refreshHot()
}

// ApplyBatch folds one churn batch — deletions first, then additions — into
// the state in O(batch) (amortized). A multi-pass strategy has no incremental
// assigner: its batch is validated and folded into the live set the same way,
// minus the assigner calls, and then repartitioned one-shot (BatchStats.Rebuilt).
// Deleting an edge that is not live is an error and aborts the batch
// mid-way; duplicate edges delete one copy per request, newest first.
func (st *PartitionState) ApplyBatch(adds, dels []graph.Edge) (BatchStats, error) {
	stats := BatchStats{Rebuilt: st.inc == nil}
	for _, e := range dels {
		p, err := st.unlink(e)
		if err != nil {
			return stats, err
		}
		st.removeCopy(e, p)
		if st.del != nil {
			st.del.ObserveDelete(e, p)
		}
		st.deg[e.Src]--
		st.deg[e.Dst]--
		stats.Deleted++
	}
	for _, e := range adds {
		st.ensure(int(max(e.Src, e.Dst)) + 1)
		p := int32(0) // multi-pass placeholder; Rebuild assigns for real
		if st.inc != nil {
			var routed bool
			if p, routed = st.routeHot(e); !routed {
				p = st.inc.Assign(e)
			}
			if p < 0 || int(p) >= st.numParts {
				return stats, fmt.Errorf("partition: strategy %s placed edge (%d,%d) on partition %d (numParts=%d)",
					st.strategy.Name(), e.Src, e.Dst, p, st.numParts)
			}
			st.placeCopy(e, p)
		}
		st.link(e, p)
		st.deg[e.Src]++
		st.deg[e.Dst]++
		stats.Added++
	}
	if st.inc == nil {
		return stats, st.Rebuild()
	}
	if st.hotK > 0 {
		st.refreshHot()
	}
	return stats, nil
}

// unlink removes one live copy of e (the most recently added) from the
// edge index and live list, returning the partition it lived on.
func (st *PartitionState) unlink(e graph.Edge) (int32, error) {
	key := edgeKey(e)
	lst := st.index[key]
	if len(lst) == 0 {
		return -1, fmt.Errorf("partition: delete of edge (%d,%d) which is not live", e.Src, e.Dst)
	}
	pos := lst[len(lst)-1]
	if len(lst) == 1 {
		delete(st.index, key)
	} else {
		st.index[key] = lst[:len(lst)-1]
	}
	p := st.live[pos].p
	last := int32(len(st.live) - 1)
	if pos != last {
		moved := st.live[last]
		st.live[pos] = moved
		mlst := st.index[edgeKey(moved.e)]
		for i := len(mlst) - 1; i >= 0; i-- {
			if mlst[i] == last {
				mlst[i] = pos
				break
			}
		}
	}
	st.live = st.live[:last]
	return p, nil
}

// link appends e as a live edge on partition p.
func (st *PartitionState) link(e graph.Edge, p int32) {
	pos := int32(len(st.live))
	st.live = append(st.live, liveEdge{e: e, p: p})
	key := edgeKey(e)
	st.index[key] = append(st.index[key], pos)
}

// ensure grows the vertex-space bookkeeping to cover at least n vertices.
func (st *PartitionState) ensure(n int) {
	if n <= st.n {
		return
	}
	st.ref.ensureRows(n)
	st.replicas.ensureRows(n)
	st.pinned.ensureRows(n)
	for len(st.deg) < n {
		st.deg = append(st.deg, 0)
	}
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
// image unless a pinned hot image already holds it.
func (st *PartitionState) addIncidence(v, p int) {
	if st.ref.inc(v, p) == 1 && !st.pinned.has(v, p) {
		st.gainImage(v, p)
	}
}

// removeIncidence drops v's endpoint count on p; the 1→0 transition removes
// the image unless it is pinned hot.
func (st *PartitionState) removeIncidence(v, p int) {
	if st.ref.dec(v, p) == 0 && !st.pinned.has(v, p) {
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

// Rebuild repartitions the live edge set one-shot with the state's own
// strategy and replays the result into the incremental bookkeeping — the
// repartition-from-scratch baseline the dyn.* experiments price, and the
// only ingress path for multi-pass strategies. The incremental assigner is
// reconstructed afterwards: its per-loader state restarts from the rebuilt
// placement's graph, not the churn history.
func (st *PartitionState) Rebuild() error {
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
	st.pinned.reset()
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
	if st.hotK > 0 {
		st.hot = st.hot[:0]
		st.refreshHot()
	}
	return nil
}

// routeHot intercepts an add when hot replication is on and either endpoint
// is hot: a hot endpoint is replicated everywhere, so only the cold
// endpoint's locality matters and the edge goes to the least-loaded
// partition already holding the cold endpoint (or overall). Bypasses the
// strategy's assigner — the documented placement drift of hot mode.
func (st *PartitionState) routeHot(e graph.Edge) (int32, bool) {
	if st.hotK == 0 || len(st.hot) == 0 {
		return 0, false
	}
	hs, hd := st.isHot(e.Src), st.isHot(e.Dst)
	if !hs && !hd {
		return 0, false
	}
	if hs != hd {
		cold := e.Src
		if hs {
			cold = e.Dst
		}
		if int(cold) < st.n {
			if p := st.leastLoadedHolding(int(cold)); p >= 0 {
				return p, true
			}
		}
	}
	return st.leastLoadedPart(), true
}

// isHot reports whether v is in the current hot set.
func (st *PartitionState) isHot(v graph.VertexID) bool {
	i := sort.Search(len(st.hot), func(i int) bool { return st.hot[i] >= int32(v) })
	return i < len(st.hot) && st.hot[i] == int32(v)
}

// leastLoadedPart returns the partition with the fewest edges (lowest id on
// ties).
func (st *PartitionState) leastLoadedPart() int32 {
	best := 0
	for p := 1; p < st.numParts; p++ {
		if st.q.EdgesOn(p) < st.q.EdgesOn(best) {
			best = p
		}
	}
	return int32(best)
}

// leastLoadedHolding returns the least-loaded partition with a live edge of
// v, or -1 when v has none.
func (st *PartitionState) leastLoadedHolding(v int) int32 {
	best := int32(-1)
	for p := 0; p < st.numParts; p++ {
		if st.ref.get(v, p) > 0 && (best < 0 || st.q.EdgesOn(p) < st.q.EdgesOn(int(best))) {
			best = int32(p)
		}
	}
	return best
}

// refreshHot recomputes the top-hotK degree vertices and adjusts pinning:
// newly hot vertices gain an image on every partition, vertices that fell
// out of the tail keep images only where live edges hold them.
func (st *PartitionState) refreshHot() {
	var next []int32
	if st.hotK > 0 {
		cands := make([]int32, 0, st.n)
		for v := 0; v < st.n; v++ {
			if st.deg[v] > 0 {
				cands = append(cands, int32(v))
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if st.deg[cands[i]] != st.deg[cands[j]] {
				return st.deg[cands[i]] > st.deg[cands[j]]
			}
			return cands[i] < cands[j]
		})
		if len(cands) > st.hotK {
			cands = cands[:st.hotK]
		}
		next = cands
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	}
	// Unpin vertices that left the hot set.
	for _, v := range st.hot {
		if !inSorted(next, v) {
			st.unpin(int(v))
		}
	}
	// Pin new arrivals.
	for _, v := range next {
		if !inSorted(st.hot, v) {
			st.pin(int(v))
		}
	}
	st.hot = next
}

func inSorted(s []int32, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// pin gives v an image on every partition, creating images where no live
// edge holds one.
func (st *PartitionState) pin(v int) {
	for p := 0; p < st.numParts; p++ {
		if !st.pinned.has(v, p) {
			st.pinned.set(v, p)
			if !st.replicas.has(v, p) {
				st.gainImage(v, p)
			}
		}
	}
}

// unpin releases v's pinned images, dropping those no live edge sustains.
func (st *PartitionState) unpin(v int) {
	for p := 0; p < st.numParts; p++ {
		if st.pinned.has(v, p) {
			st.pinned.clear(v, p)
			if st.ref.get(v, p) == 0 && st.replicas.has(v, p) {
				st.loseImage(v, p)
			}
		}
	}
}

// --- summary accessors (the Assignment-compatible read side) -----------

// NumEdges returns the number of live edges.
func (st *PartitionState) NumEdges() int64 { return st.q.NumEdges() }

// NumVertices returns the vertex-space high-water mark (max id seen + 1);
// vertices whose edges were all deleted stay isolated, master -1.
func (st *PartitionState) NumVertices() int { return st.n }

// NumParts returns the partition count.
func (st *PartitionState) NumParts() int { return st.numParts }

// Incremental reports whether churn is absorbed incrementally (false for
// the multi-pass family, which repartitions per batch).
func (st *PartitionState) Incremental() bool { return st.inc != nil }

// EdgeCount returns the live per-partition edge counts (the summary's
// backing slice; do not modify).
func (st *PartitionState) EdgeCount() []int64 { return st.q.EdgeCounts() }

// Degree returns v's live degree.
func (st *PartitionState) Degree(v graph.VertexID) int {
	if int(v) >= st.n {
		return 0
	}
	return int(st.deg[v])
}

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
