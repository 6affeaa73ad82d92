package engine

// Deterministic work-sharding for the superstep core (Execute), and so for
// all three systems' runs. par.Do picks the goroutine that evaluates a
// shard (inline on the caller at one worker or one shard); this file is the
// engine's policy around it: how many shards a work list gets, whether they
// are worth a hand-off at all, the per-shard and per-worker scratch, and the
// shard-order merges.
//
// The central invariant: the decomposition of a phase's work list into
// contiguous shards depends only on the *length of the list*, never on the
// number of workers, and every floating-point meter is accumulated into a
// per-shard scratch slot and merged in shard order. Workers only change
// which goroutine evaluates a shard — so Stats and Values are byte-identical
// for every Workers value, for any cost model, which is the reproducibility
// contract the simulation's "metrics are deterministic functions of
// partitioning quality" claim rests on.

import (
	"math/bits"
	"slices"

	"graphpart/internal/graph"
	"graphpart/internal/par"
)

const (
	// minShardItems is the smallest work-list slice worth a shard of its
	// own: below it, merge overhead dominates.
	minShardItems = 256
	// minParallelShards is the fewest shards worth a goroutine hand-off: a
	// phase of fewer (under 2 048 items, microseconds of work) runs its
	// shards in order on the calling goroutine. Small frontiers (the long
	// convergence tail of SSSP on road networks) therefore never leave it.
	// Measured on the benchmark's pipelines: at 16 the halting tail of
	// GraphX PageRank, which still parallelises, loses 3%; at 8 it is flat.
	// At 2, BenchmarkEngineParallelSmallFrontier ran 15–25% slower (3
	// alternations, 2 vCPUs), so small frontiers stay on the caller.
	minParallelShards = 8
	// maxShards caps per-shard scratch memory and merge cost.
	maxShards = 64
)

// numShards returns the number of contiguous shards an n-item work list is
// split into. It is a function of n only — never of the worker count.
func numShards(n int) int {
	s := n / minShardItems
	if s < 1 {
		return 1
	}
	if s > maxShards {
		return maxShards
	}
	return s
}

// meters is one shard's private accounting scratch: per-partition CPU work
// and traffic. Workers write only their own shard's slices, and the merge (in
// shard order) happens on the coordinating goroutine. Adjacent shards'
// structs share cache lines, so the struct holds nothing a per-vertex path
// writes: a phase body keeps its scalar sums in locals and returns them.
type meters struct {
	Work, In, Out []float64 // indexed by partition
}

// newMeters returns zeroed meters for numParts partitions.
func newMeters(numParts int) meters {
	return meters{
		Work: make([]float64, numParts),
		In:   make([]float64, numParts),
		Out:  make([]float64, numParts),
	}
}

// reset zeroes the meters for reuse.
func (m *meters) reset() {
	clear(m.Work)
	clear(m.In)
	clear(m.Out)
}

// mergeInto adds this shard's per-partition meters into the global arrays.
func (m *meters) mergeInto(work, in, out []float64) {
	for p := range work {
		work[p] += m.Work[p]
		in[p] += m.In[p]
		out[p] += m.Out[p]
	}
}

// tally is what one shard's phase body returned, stored once per shard.
type tally struct {
	changed int     // entries appended to the shard's change window
	edges   int64   // gather or scatter edge visits
	dyn     float64 // transfer bytes (peak-memory accounting)
}

// bitset is a fixed-size bit set over a dense vertex-id space. Scatter
// workers each own one, so activation writes need no synchronization; the
// per-worker sets merge by OR, which is commutative and idempotent — the
// merged frontier is identical no matter which worker set which bit.
type bitset []uint64

// newBitset returns a zeroed bitset holding n bits.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// Set sets bit i.
func (b bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b bitset) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// MergeClear ORs src into b and zeroes src, in one pass.
func (b bitset) MergeClear(src bitset) {
	for i, w := range src {
		if w != 0 {
			b[i] |= w
			src[i] = 0
		}
	}
}

// ForEach calls fn for every set bit in ascending order.
func (b bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// sharder owns the sharded-phase scratch of one run and provides the three
// phase shapes a superstep executes with: the worker clamp, per-shard meter
// pools, shard-order merges, per-worker bitmap lazy-init and OR-merge the
// byte-identical-determinism contract depends on.
type sharder struct {
	// Workers is the resolved goroutine bound, clamped to the maximum
	// shard count so idle workers are never spawned.
	Workers int

	shards []meters
	tally  []tally  // per-shard results of the last phase
	next   []bitset // per-worker activation bitmaps, allocated on first use
	n      int      // vertices, for bitmap sizing
}

// newSharder sizes the scratch for a run over n vertices and numParts
// partitions. No metered phase can use more shards than numShards(n)
// (frontiers and change lists are at most n items), so both pools are
// bounded up front.
func newSharder(workers, numParts, n int) *sharder {
	w := min(par.Workers(workers), numShards(n))
	sh := &sharder{Workers: w, n: n}
	sh.shards = make([]meters, numShards(n))
	for i := range sh.shards {
		sh.shards[i] = newMeters(numParts)
	}
	sh.tally = make([]tally, len(sh.shards))
	sh.next = make([]bitset, w)
	return sh
}

// workersFor returns the goroutines a phase of ns shards runs on: the
// caller's alone below minParallelShards. Only who evaluates a shard
// depends on it — the decomposition, the scratch and the merges do not.
func (sh *sharder) workersFor(ns int) int {
	if ns < minParallelShards {
		return 1
	}
	return sh.Workers
}

// Do runs body over contiguous shards of an nItems-long work list. For
// phases with no meters (e.g. committing newVals), where shards only write
// disjoint indexes.
func (sh *sharder) Do(nItems int, body func(lo, hi int)) {
	ns := numShards(nItems)
	par.Do(sh.workersFor(ns), ns, func(s, _ int) {
		lo, hi := par.Range(nItems, ns, s)
		body(lo, hi)
	})
}

// Meter runs body over contiguous shards of an nItems-long work list, each
// shard with zeroed private meters and its own window of one change buffer:
// shard [lo, hi) appends to dst[lo:lo:hi], at most one entry per item, and
// body returns what it appended, its edge visits and its transfer bytes.
// dst's backing array is reused, grown only when shorter than the list.
// Meters merge into work/in/out in shard order and the windows compact to the
// front of dst, also in shard order, so for a contiguous decomposition the
// result is in work-list order, exactly as a sequential loop would produce
// it. Returns the changes plus the edges and bytes summed in shard order.
func (sh *sharder) Meter(nItems int, work, in, out []float64, dst []graph.VertexID,
	body func(lo, hi int, ms *meters, ch []graph.VertexID) ([]graph.VertexID, int64, float64)) ([]graph.VertexID, int64, float64) {
	dst = slices.Grow(dst[:0], nItems)[:nItems]
	ns := numShards(nItems)
	par.Do(sh.workersFor(ns), ns, func(s, _ int) {
		ms := &sh.shards[s]
		ms.reset()
		lo, hi := par.Range(nItems, ns, s)
		ch, edges, dyn := body(lo, hi, ms, dst[lo:lo:hi])
		sh.tally[s] = tally{len(ch), edges, dyn}
	})
	edges, dyn := sh.merge(ns, work, in, out)
	off := 0
	for s := 0; s < ns; s++ {
		// off ≤ lo: every earlier window holds at most its own length.
		lo, _ := par.Range(nItems, ns, s)
		off += copy(dst[off:], dst[lo:lo+sh.tally[s].changed])
	}
	return dst[:off], edges, dyn
}

// Scatter runs body over contiguous shards of an nItems-long change list,
// each shard with zeroed private meters and its worker's activation bitmap;
// body returns its edge visits and transfer bytes. frontier is cleared, then
// the per-worker bitmaps OR-merge into it (and are cleared for the next
// superstep). Meters merge in shard order; returns the edges and bytes
// summed in shard order.
func (sh *sharder) Scatter(nItems int, work, in, out []float64, frontier bitset,
	body func(lo, hi int, ms *meters, nb bitset) (int64, float64)) (int64, float64) {
	clear(frontier)
	ns := numShards(nItems)
	par.Do(sh.workersFor(ns), ns, func(s, w int) {
		ms := &sh.shards[s]
		ms.reset()
		nb := sh.next[w]
		if nb == nil {
			nb = newBitset(sh.n)
			sh.next[w] = nb
		}
		lo, hi := par.Range(nItems, ns, s)
		edges, dyn := body(lo, hi, ms, nb)
		sh.tally[s] = tally{edges: edges, dyn: dyn}
	})
	for _, nb := range sh.next {
		if nb != nil {
			frontier.MergeClear(nb)
		}
	}
	return sh.merge(ns, work, in, out)
}

// merge adds the first ns shards' meters into work/in/out and sums their
// edges and bytes, all in shard order.
func (sh *sharder) merge(ns int, work, in, out []float64) (int64, float64) {
	var edges int64
	var dyn float64
	for s := 0; s < ns; s++ {
		sh.shards[s].mergeInto(work, in, out)
		edges += sh.tally[s].edges
		dyn += sh.tally[s].dyn
	}
	return edges, dyn
}
