package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// loaderState is the per-loader view used by the greedy strategies. In the
// real systems, ingress is distributed: each machine streams its share of
// the edge list and greedily places edges using only the assignments *it*
// has made — it is "oblivious" to the other loaders (§5.2.2). We reproduce
// that by striping the edge list across numLoaders independent states,
// exposed through the StreamingStrategy capability so the blocks can run
// concurrently.
//
// Beside the loads, the state keeps its partitions grouped by distinct
// load: the levels, ascending, each a load and the mask of the partitions
// at it, one bitMatrix row long, and each partition's level. There are at
// most numParts levels however far the loads spread (a list with one level
// per load value between the minimum and the maximum would grow with the
// spread), and place and ObserveDelete keep them exact. A pick reads the
// minimum and maximum load, a candidate's rank by load and the tied
// candidates from them instead of scanning every partition.
type loaderState struct {
	n      int        // vertices covered by parts (and pdeg)
	parts  *bitMatrix // A(v): partitions this loader has placed v's edges on
	load   []int64    // edges this loader has assigned to each partition
	pdeg   []int32    // HDRF partial-degree counters (δ)
	rng    *hashing.RNG
	lvLoad []int64  // the distinct loads, ascending
	lvMask []uint64 // lvMask[i*words:(i+1)*words]: the partitions at lvLoad[i]
	lvOf   []int32  // the level of each partition
	cand   []uint64 // a pick's candidate mask (scratch, one row)
}

func newLoaderState(numVertices, numParts int, seed uint64, partialDeg bool) *loaderState {
	st := &loaderState{
		n:      numVertices,
		parts:  newBitMatrix(numVertices, numParts),
		load:   make([]int64, numParts),
		rng:    hashing.NewRNG(seed),
		lvLoad: append(make([]int64, 0, numParts), 0),
		lvOf:   make([]int32, numParts),
	}
	w := st.parts.words
	masks := make([]uint64, (numParts+1)*w)
	st.cand, st.lvMask = masks[:w:w], masks[w:2*w]
	for p := 0; p < numParts; p++ {
		st.lvMask[p/64] |= 1 << (p % 64)
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

func (st *loaderState) place(e graph.Edge, p int) {
	st.load[p]++
	st.move(p, st.load[p]-1, st.load[p])
	st.parts.set(int(e.Src), p)
	st.parts.set(int(e.Dst), p)
}

// move takes partition p from its level, at load from, to the level at
// load to = from±1, which is the next level up or down if it exists. The
// levels stay distinct, ascending and non-empty: a level p leaves alone is
// relabelled or closed, one it needs is opened beside its old one, and the
// partitions on the levels above a closed or opened one are renumbered.
// Every partition is on one level, so the slices never outgrow the
// numParts levels they were made for.
func (st *loaderState) move(p int, from, to int64) {
	w, wp, bit := st.parts.words, p/64, uint64(1)<<(p%64)
	i := int(st.lvOf[p])
	row := st.lvMask[i*w : (i+1)*w]
	row[wp] &^= bit
	alone := row[wp] == 0 && slices.Max(row) == 0
	j := i + int(to-from) // the neighbouring level, if it is at to
	switch {
	case j >= 0 && j < len(st.lvLoad) && st.lvLoad[j] == to:
		if alone {
			st.lvLoad = slices.Delete(st.lvLoad, i, i+1)
			st.lvMask = slices.Delete(st.lvMask, i*w, (i+1)*w)
			st.renumber(i+1, -1)
			j = min(i, j)
		}
	case alone:
		st.lvLoad[i], j = to, i
	default:
		j = max(i, j) // open the level at to beside level i
		st.lvLoad = slices.Insert(st.lvLoad, j, to)
		n := len(st.lvMask)
		st.lvMask = st.lvMask[:n+w]
		copy(st.lvMask[(j+1)*w:], st.lvMask[j*w:n])
		clear(st.lvMask[j*w : (j+1)*w])
		st.renumber(j, 1)
	}
	st.lvMask[j*w+wp] |= bit
	st.lvOf[p] = int32(j)
}

// renumber adds d to the level of every partition on level i or above. The
// add is masked by the sign of lvOf−i rather than branched on, because which
// partitions lie above a level follows no pattern a branch could learn.
func (st *loaderState) renumber(i int, d int32) {
	for q, l := range st.lvOf {
		st.lvOf[q] = l + d&^((l-int32(i))>>31)
	}
}

// leastLoaded returns the least-loaded partition in cand, which must hold
// one, exactly as a left-to-right scan over cand picks it: a candidate
// below the running minimum takes over, and one equal to it is the ties-th
// tie and takes over on Intn(ties) == 0, so ties resolve uniformly, as in
// PowerGraph. Only the candidates on the lowest level draw. The draws the
// scan makes before reaching them, for ties a lower load supersedes, are
// counted and skipped, which leaves the random stream where the scan
// leaves it.
func (st *loaderState) leastLoaded(cand []uint64) int {
	// low is the lowest level holding a candidate; none lies below level 0.
	w, low := len(cand), int32(len(st.lvLoad))
	for wi := 0; wi < w && low > 0; wi++ {
		for x := cand[wi]; x != 0 && low > 0; x &= x - 1 {
			if p := wi*64 + bits.TrailingZeros64(x); p < len(st.lvOf) {
				low = min(low, st.lvOf[p])
			}
		}
	}
	best, ties := 0, 0
	for wi, lw := range st.lvMask[int(low)*w : int(low+1)*w] {
		for x := lw & cand[wi]; x != 0; x &= x - 1 {
			p := wi*64 + bits.TrailingZeros64(x)
			if ties++; ties == 1 {
				best = p
				st.rng.Skip(st.draws(cand, p))
			} else if st.rng.Intn(ties) == 0 {
				best = p
			}
		}
	}
	return best
}

// draws counts the draws a left-to-right least-loaded scan over the
// candidates below end makes: one per candidate on the running minimum's
// level, whether or not a lower load later supersedes it.
func (st *loaderState) draws(cand []uint64, end int) uint64 {
	var n uint64
	low := int32(len(st.lvLoad))
	for wi := 0; wi*64 < end; wi++ {
		x := cand[wi]
		if r := end - wi*64; r < 64 {
			x &= 1<<r - 1
		}
		for ; x != 0; x &= x - 1 {
			l := st.lvOf[wi*64+bits.TrailingZeros64(x)]
			if l == low {
				n++
			}
			low = min(low, l)
		}
	}
	return n
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
}

// Assign implements Assigner.
func (l *greedyLoader) Assign(e graph.Edge) int32 {
	l.st.cover(e)
	var p int
	if l.hdrf {
		p = hdrfPick(l.st, e, l.numParts, l.lambda)
	} else {
		p = obliviousPick(l.st, e)
	}
	l.st.place(e, p)
	return int32(p)
}

// warm loads the parts row and partial degree of each endpoint the state
// covers, the rows Assign(e) reads first.
func (l *greedyLoader) warm(e graph.Edge) uint64 {
	var sum uint64
	for _, v := range [2]int{int(e.Src), int(e.Dst)} {
		if v < l.st.n {
			sum += l.st.parts.bits[v*l.st.parts.words]
			if l.st.pdeg != nil {
				sum += uint64(l.st.pdeg[v])
			}
		}
	}
	return sum
}

// ObserveDelete implements DeleteObserver: deletes decrement the loads and
// partial degrees so balance pressure tracks the live graph. The placement
// sets stay monotone — the loader is oblivious to whether a vertex still
// has edges on a partition, just as it is oblivious to other loaders —
// which keeps per-batch work O(batch) at the cost of stale affinity after
// heavy deletion. The edge may predate the loader (a PartitionState builds
// a fresh one on rebuild), so its endpoints may lie beyond the state.
func (l *greedyLoader) ObserveDelete(e graph.Edge, p int32) {
	if ld := l.st.load[p]; ld > 0 {
		l.st.load[p]--
		l.st.move(int(p), ld, ld-1)
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

// oblivious is PowerGraph's greedy heuristic (§5.2.2, Appendix A). For
// each edge (u,v) with current placement sets A(u), A(v):
//
//	Case 1: A(u)∩A(v) ≠ ∅        → least-loaded partition in the intersection
//	Case 2: exactly one is empty  → least-loaded in the non-empty set
//	Case 3: both empty            → least-loaded partition overall
//	Case 4: both non-empty, disjoint → least-loaded in A(u)∪A(v)
//
// numLoaders controls how many independent loader views stripe the edge
// list (0 means one per partition, matching one loader per machine).
type oblivious struct {
	numLoaders int
}

// Name implements Strategy.
func (oblivious) Name() string { return "Oblivious" }

// Loaders implements StreamingStrategy.
func (o oblivious) Loaders(numParts int) int { return loadersOrDefault(o.numLoaders, numParts) }

// NewLoader implements StreamingStrategy.
func (o oblivious) NewLoader(numVertices, numParts, id int, seed uint64) (Assigner, error) {
	return &greedyLoader{
		st:       newLoaderState(numVertices, numParts, hashing.Combine(seed, uint64(id)), false),
		numParts: numParts,
	}, nil
}

// Partition implements Strategy.
func (o oblivious) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
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
	Lambda     float64 // 0 means the default λ=1; negative, NaN and ±Inf are refused
	NumLoaders int
}

// Name implements Strategy.
func (HDRF) Name() string { return "HDRF" }

// Loaders implements StreamingStrategy.
func (h HDRF) Loaders(numParts int) int { return loadersOrDefault(h.NumLoaders, numParts) }

// NewLoader implements StreamingStrategy.
func (h HDRF) NewLoader(numVertices, numParts, id int, seed uint64) (Assigner, error) {
	lambda := cmp.Or(h.Lambda, 1)
	if !(lambda > 0 && lambda <= math.MaxFloat64) {
		return nil, fmt.Errorf("hdrf: λ=%v is not a positive finite number (0 means 1)", lambda)
	}
	return &greedyLoader{
		st:       newLoaderState(numVertices, numParts, hashing.Combine(seed, uint64(id)), true),
		numParts: numParts,
		hdrf:     true,
		lambda:   lambda,
	}, nil
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

// obliviousPick is the least-loaded partition of Oblivious's case: the
// intersection A(u)∩A(v) if it is not empty, else the union (cases 2 and 4)
// if that is not, else every partition.
func obliviousPick(st *loaderState, e graph.Edge) int {
	au, av := st.parts.row(int(e.Src)), st.parts.row(int(e.Dst))
	var inter, union uint64
	for wi := range au {
		inter |= au[wi] & av[wi]
		union |= au[wi] | av[wi]
	}
	for wi := range st.cand {
		switch {
		case inter != 0:
			st.cand[wi] = au[wi] & av[wi]
		case union != 0:
			st.cand[wi] = au[wi] | av[wi]
		default:
			st.cand[wi] = ^uint64(0)
		}
	}
	return st.leastLoaded(st.cand)
}

// hdrfPick returns the partition a left-to-right scan of every partition's
// score picks, ties broken and random numbers drawn as in leastLoaded. The
// replication term takes one of four values per edge, read from a table
// indexed by the two membership bits. The balance term λ·CBAL depends on
// the load alone and, for λ > 0, falls as the load rises: the levels order
// the non-members' scores, and the best of them is λ·CBAL at the minimum
// load. So the scan reduces to one of three:
//
//   - A(u)∪A(v) is empty: every score is λ·CBAL, and the pick is leastLoaded.
//   - min(g_u, g_v) > λ·max CBAL, which always holds for λ ≤ 1: every member
//     of A(u)∪A(v) outscores every non-member. The draws of the non-members
//     before the first member are skipped, and only the members are scored.
//   - Otherwise (λ > 1) every partition is scored. So is every edge for λ
//     below 2⁻¹⁰²⁰: there two loads' λ·CBAL can round to one subnormal
//     value, and the levels would no longer order the scores strictly.
//
// A scored CBAL is always the formula's expression (max−load)/(max−min+1),
// so all three give the full scan's answer bit for bit.
func hdrfPick(st *loaderState, e graph.Edge, numParts int, lambda float64) int {
	st.pdeg[e.Src]++
	st.pdeg[e.Dst]++
	du := float64(st.pdeg[e.Src])
	dv := float64(st.pdeg[e.Dst])
	thetaU := du / (du + dv)
	thetaV := dv / (du + dv)
	// CREP by membership: bit 0 is M ∈ A(u), bit 1 is M ∈ A(v).
	gu, gv := 1+(1-thetaU), 1+(1-thetaV)
	crep := [4]float64{0, gu, gv, gu + gv}

	minLoad, maxLoad := st.lvLoad[0], st.lvLoad[len(st.lvLoad)-1]
	denom := float64(maxLoad-minLoad) + 1
	au, av := st.parts.row(int(e.Src)), st.parts.row(int(e.Dst))
	first := numParts // the lowest member of A(u)∪A(v)
	for wi := range au {
		m := au[wi] | av[wi]
		st.cand[wi] = ^m
		if m != 0 && first == numParts {
			first = wi*64 + bits.TrailingZeros64(m)
		}
	}
	var all uint64 // ^0 when every partition is scored
	switch levels := lambda >= 0x1p-1020; {
	case levels && first == numParts:
		return st.leastLoaded(st.cand)
	case levels && min(gu, gv) > lambda*(float64(maxLoad-minLoad)/denom):
		st.rng.Skip(st.draws(st.cand, first))
	default:
		all = ^uint64(0)
	}
	best, bestScore, ties := 0, -1.0, 1
	for wi, wu := range au {
		wv := av[wi]
		for x := wu | wv | all; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			p := wi*64 + b
			if p >= numParts {
				break
			}
			// CBAL ∈ [0,1): less-loaded partitions score higher.
			score := crep[wu>>b&1|wv>>b&1<<1] + lambda*(float64(maxLoad-st.load[p])/denom)
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
	}
	return best
}
