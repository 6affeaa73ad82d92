package partition

import (
	"math/bits"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

func init() {
	Register("Oblivious", func(opt Options) Strategy { return Oblivious{NumLoaders: opt.Loaders} })
	Register("HDRF", func(opt Options) Strategy { return HDRF{NumLoaders: opt.Loaders} })
}

// loaderState is the per-loader view used by the greedy strategies. In the
// real systems, ingress is distributed: each machine streams its share of
// the edge list and greedily places edges using only the assignments *it*
// has made — it is "oblivious" to the other loaders (§5.2.2). We reproduce
// that by striping the edge list across numLoaders independent states,
// exposed through the StreamingStrategy capability so the blocks can run
// concurrently.
type loaderState struct {
	n     int        // vertices covered by parts (and pdeg)
	parts *bitMatrix // A(v): partitions this loader has placed v's edges on
	load  []int64    // edges this loader has assigned to each partition
	pdeg  []int32    // HDRF partial-degree counters (δ)
	rng   *hashing.RNG
}

func newLoaderState(numVertices, numParts int, seed uint64, partialDeg bool) *loaderState {
	st := &loaderState{
		n:     numVertices,
		parts: newBitMatrix(numVertices, numParts),
		load:  make([]int64, numParts),
		rng:   hashing.NewRNG(seed),
	}
	if partialDeg {
		st.pdeg = make([]int32, numVertices)
	}
	return st
}

// cover makes sure the state covers both endpoints of e, so a loader can
// follow a graph whose vertex set is discovered as edges arrive. For a
// pre-sized loader it is one compare per edge.
func (st *loaderState) cover(e graph.Edge) {
	if n := int(max(e.Src, e.Dst)) + 1; n > st.n {
		st.grow(n)
	}
}

// grow extends the state to cover n > st.n vertices.
func (st *loaderState) grow(n int) {
	st.n = n
	st.parts.ensureRows(n)
	if st.pdeg != nil {
		if n <= cap(st.pdeg) {
			st.pdeg = st.pdeg[:n]
		} else {
			np := make([]int32, n, 2*n)
			copy(np, st.pdeg)
			st.pdeg = np
		}
	}
}

// leastLoadedIn returns the least-loaded partition among cands, which must
// not be empty. Ties are broken pseudo-randomly, uniformly over the tied
// candidates, as in PowerGraph.
func (st *loaderState) leastLoadedIn(cands []int) int {
	best := cands[0]
	ties := 1
	for _, c := range cands[1:] {
		switch {
		case st.load[c] < st.load[best]:
			best, ties = c, 1
		case st.load[c] == st.load[best]:
			ties++
			if st.rng.Intn(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

func (st *loaderState) place(e graph.Edge, p int) {
	st.load[p]++
	st.parts.set(int(e.Src), p)
	st.parts.set(int(e.Dst), p)
}

// greedyLoader is the greedy strategies' Assigner: one block of the edge
// stream, one private state, no cross-loader coordination. The state grows
// when an edge names a vertex beyond it, so the same loader serves churn,
// where the vertex set is discovered as edges arrive: a PartitionState's
// persistent assigner is loader 0 of Options{Loaders: 1}, and an add-only
// trace reproduces that one-shot pass placement for placement.
type greedyLoader struct {
	st       *loaderState
	numParts int
	hdrf     bool    // select HDRF scoring over Oblivious case logic
	lambda   float64 // HDRF's λ
	cands    []int
}

// Assign implements Assigner.
func (l *greedyLoader) Assign(e graph.Edge) int32 {
	l.st.cover(e)
	var p int
	if l.hdrf {
		p = hdrfPick(l.st, e, l.numParts, l.lambda)
	} else {
		p = obliviousPick(l.st, e, l.numParts, &l.cands)
	}
	l.st.place(e, p)
	return int32(p)
}

// ObserveDelete implements DeleteObserver: deletes decrement the loads and
// partial degrees so balance pressure tracks the live graph. The placement
// sets stay monotone — the loader is oblivious to whether a vertex still
// has edges on a partition, just as it is oblivious to other loaders —
// which keeps per-batch work O(batch) at the cost of stale affinity after
// heavy deletion. The edge may predate the loader (a PartitionState builds
// a fresh one on Rebuild), so its endpoints may lie beyond the state.
func (l *greedyLoader) ObserveDelete(e graph.Edge, p int32) {
	if l.st.load[p] > 0 {
		l.st.load[p]--
	}
	if l.st.pdeg != nil {
		l.st.cover(e)
		if l.st.pdeg[e.Src] > 0 {
			l.st.pdeg[e.Src]--
		}
		if l.st.pdeg[e.Dst] > 0 {
			l.st.pdeg[e.Dst]--
		}
	}
}

// Oblivious is PowerGraph's greedy heuristic (§5.2.2, Appendix A). For
// each edge (u,v) with current placement sets A(u), A(v):
//
//	Case 1: A(u)∩A(v) ≠ ∅        → least-loaded partition in the intersection
//	Case 2: exactly one is empty  → least-loaded in the non-empty set
//	Case 3: both empty            → least-loaded partition overall
//	Case 4: both non-empty, disjoint → least-loaded in A(u)∪A(v)
//
// NumLoaders controls how many independent loader views stripe the edge
// list (0 means one per partition, matching one loader per machine).
type Oblivious struct {
	NumLoaders int
}

// Name implements Strategy.
func (Oblivious) Name() string { return "Oblivious" }

// Loaders implements StreamingStrategy.
func (o Oblivious) Loaders(numParts int) int { return loadersOrDefault(o.NumLoaders, numParts) }

// NewLoader implements StreamingStrategy.
func (o Oblivious) NewLoader(numVertices, numParts, id int, seed uint64) Assigner {
	return &greedyLoader{
		st:       newLoaderState(numVertices, numParts, hashing.Combine(seed, uint64(id)), false),
		numParts: numParts,
		cands:    make([]int, 0, numParts),
	}
}

// Partition implements Strategy.
func (o Oblivious) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStreaming(g, o, numParts, seed, 1)
}

// HDRF is High-Degree Replicated First (§5.2.4, Appendix B): greedy like
// Oblivious but scoring candidate partitions with
//
//	C(u,v,M) = CREP(u,v,M) + λ·CBAL(M)
//	CREP     = g(u,M) + g(v,M),   g(v,M) = 1 + (1−θ(v)) if M ∈ A(v) else 0
//	θ(v)     = δ(v) / (δ(u)+δ(v))   (partial degrees)
//
// so ties prefer cutting the *higher*-degree endpoint, concentrating
// replication on hubs and sparing low-degree vertices. λ=1, the value
// hardcoded by PowerGraph and used throughout the paper.
type HDRF struct {
	Lambda     float64 // 0 means the default λ=1
	NumLoaders int
}

// Name implements Strategy.
func (HDRF) Name() string { return "HDRF" }

// Loaders implements StreamingStrategy.
func (h HDRF) Loaders(numParts int) int { return loadersOrDefault(h.NumLoaders, numParts) }

// NewLoader implements StreamingStrategy.
func (h HDRF) NewLoader(numVertices, numParts, id int, seed uint64) Assigner {
	lambda := h.Lambda
	if lambda == 0 {
		lambda = 1
	}
	return &greedyLoader{
		st:       newLoaderState(numVertices, numParts, hashing.Combine(seed, uint64(id)), true),
		numParts: numParts,
		hdrf:     true,
		lambda:   lambda,
	}
}

// Partition implements Strategy.
func (h HDRF) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStreaming(g, h, numParts, seed, 1)
}

// loadersOrDefault resolves a NumLoaders option: 0 means one loader per
// partition (one per machine in the paper's single-partition-per-machine
// clusters).
func loadersOrDefault(numLoaders, numParts int) int {
	if numLoaders <= 0 {
		return numParts
	}
	return numLoaders
}

func obliviousPick(st *loaderState, e graph.Edge, numParts int, scratch *[]int) int {
	au := st.parts.row(int(e.Src))
	av := st.parts.row(int(e.Dst))
	cands := (*scratch)[:0]

	// Case 1: intersection.
	for wi := range au {
		w := au[wi] & av[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			cands = append(cands, wi*64+b)
			w &= w - 1
		}
	}
	if len(cands) == 0 {
		// Cases 2 and 4: union of the non-empty sets.
		for wi := range au {
			w := au[wi] | av[wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				cands = append(cands, wi*64+b)
				w &= w - 1
			}
		}
	}
	if len(cands) == 0 {
		// Case 3: anywhere.
		for p := 0; p < numParts; p++ {
			cands = append(cands, p)
		}
	}
	*scratch = cands
	return st.leastLoadedIn(cands)
}

func hdrfPick(st *loaderState, e graph.Edge, numParts int, lambda float64) int {
	st.pdeg[e.Src]++
	st.pdeg[e.Dst]++
	du := float64(st.pdeg[e.Src])
	dv := float64(st.pdeg[e.Dst])
	thetaU := du / (du + dv)
	thetaV := dv / (du + dv)

	var maxLoad, minLoad int64
	maxLoad, minLoad = st.load[0], st.load[0]
	for _, l := range st.load[1:] {
		if l > maxLoad {
			maxLoad = l
		}
		if l < minLoad {
			minLoad = l
		}
	}
	denom := float64(maxLoad-minLoad) + 1

	best := 0
	bestScore := -1.0
	ties := 1
	for p := 0; p < numParts; p++ {
		var crep float64
		if st.parts.has(int(e.Src), p) {
			crep += 1 + (1 - thetaU)
		}
		if st.parts.has(int(e.Dst), p) {
			crep += 1 + (1 - thetaV)
		}
		// CBAL ∈ [0,1): less-loaded partitions score higher.
		cbal := float64(maxLoad-st.load[p]) / denom
		score := crep + lambda*cbal
		switch {
		case score > bestScore:
			best, bestScore, ties = p, score, 1
		case score == bestScore:
			ties++
			if st.rng.Intn(ties) == 0 {
				best = p
			}
		}
	}
	return best
}
