package engine

import (
	"math/bits"

	"graphpart/internal/cluster"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// Charges is a system's cost policy: everything PowerGraph, PowerLyra and
// GraphX disagree on. The vertex-program loop (Execute) is the same for all
// three, so a policy can change what a placement costs and never what the
// program computes.
//
// A policy is data: the loop evaluates every field itself, per edge, per step
// or — the three Transfers — once per replicated vertex (one that has a
// master), so nothing a system supplies runs at visit time.
type Charges struct {
	// StepFloorNs is every partition's work at the start of a superstep,
	// active or not: Spark's one task per partition per iteration (ch. 7).
	StepFloorNs float64
	// GatherEdgeNs and ScatterEdgeNs are charged per edge scanned, to the
	// partition holding the edge.
	GatherEdgeNs, ScatterEdgeNs float64
	// SignalBytes is the activation message a scatter edge sends from its
	// partition to the neighbor's master when the two sit on different
	// machines.
	SignalBytes float64
	// WorkMult scales every partition's work of a step before the clock
	// advances: GraphX's GC overhead (Fig 9.4); 1 for the GAS systems.
	WorkMult float64

	// NarrowDegree is the gather-direction degree at or below which a vertex
	// is narrow, i.e. processed Pregel-style (§6.1): its transfers reach only
	// the mirrors holding its edges in each Transfer's Narrow direction. -1
	// makes no vertex narrow, math.MaxInt every one.
	NarrowDegree int
	// NarrowSyncOnChange skips a narrow vertex's Applied transfer when Apply
	// left its value unchanged: the value travels as a message, not a sync.
	NarrowSyncOnChange bool

	// Gathered is the partial accumulators mirrors send to v's master, after
	// v's gather scan and before its apply; Applied the value sync from the
	// master to its mirrors, right after the master's apply; Shipped the value
	// a changed vertex's master ships to its mirrors in the scatter phase,
	// before v activates its neighbors.
	Gathered, Applied, Shipped Transfer
}

// scatterCharged reports whether a scatter edge costs anything.
func (ch *Charges) scatterCharged() bool { return ch.ScatterEdgeNs != 0 || ch.SignalBytes != 0 }

// Transfer prices one exchange between a vertex's master and each mirror it
// reaches; the zero Transfer charges nothing.
type Transfer struct {
	// Bytes cross the wire, and count towards the step's dynamic memory, for
	// a mirror hosted on another machine than the master.
	Bytes float64
	// MirrorNs is the reached mirror's CPU, charged to its partition.
	MirrorNs float64
	// Narrow is the edge direction a narrow vertex's mirror must hold to be
	// reached; DirBoth reaches them all, as a vertex that is not narrow does.
	Narrow Direction
}

// placement is what a visit reads of where things are, in the shape a visit
// walks it, all built once per run: the assignment's row words and masters, a
// partition→machine table, and per machine the row words of the partitions it
// hosts (local[m*words+wi]). The per-edge partitions are the views' columns.
type placement struct {
	a       *partition.Assignment
	machine []int32
	local   []uint64
}

// newPlacement builds a's placement tables for the machines of cfg.
func newPlacement(a *partition.Assignment, cfg cluster.Config) placement {
	words := (a.NumParts + 63) / 64
	pl := placement{a: a, machine: make([]int32, a.NumParts), local: make([]uint64, cfg.Machines*words)}
	for p := range pl.machine {
		m := cfg.MachineOf(p)
		pl.machine[p] = int32(m)
		pl.local[m*words+p>>6] |= 1 << uint(p&63)
	}
	return pl
}

// charge prices transfer t of v, if v has a master: every mirror reached pays
// t.MirrorNs, and one on another machine than master's moves t.Bytes — towards
// the master if toMaster, from it otherwise. It returns dyn, the caller's
// running sum of moved bytes, plus what v moved, and writes only ms's slices,
// never memory another shard's worker reads. The remote mirrors are the
// reached words masked by master's machine. Mirrors are visited in ascending
// partition order, so every meter sums its floats in one fixed sequence;
// atMaster and atMirror are always different slices, so the master's sum can
// stay in a register.
func (pl placement) charge(t Transfer, toMaster bool, v graph.VertexID, master int, narrow bool, ms *meters, dyn float64) float64 {
	if master < 0 || t.Bytes == 0 && t.MirrorNs == 0 {
		return dyn
	}
	atMaster, atMirror := ms.Out, ms.In
	if toMaster {
		atMaster, atMirror = ms.In, ms.Out
	}
	reps, in, out := pl.a.Rows(v)
	mm, words := int(pl.machine[master]), len(reps)
	local := pl.local[mm*words : (mm+1)*words]
	sent := atMaster[master]
	for wi, w := range reps {
		if narrow {
			var held uint64
			if t.Narrow.in() {
				held = in[wi]
			}
			if t.Narrow.out() {
				held |= out[wi]
			}
			w &= held
		}
		if wi == master>>6 {
			w &^= 1 << uint(master&63)
		}
		if t.MirrorNs != 0 {
			for r := w; r != 0; r &= r - 1 {
				ms.Work[wi<<6+bits.TrailingZeros64(r)] += t.MirrorNs
			}
		}
		for r := w &^ local[wi]; r != 0; r &= r - 1 {
			atMirror[wi<<6+bits.TrailingZeros64(r)] += t.Bytes
			sent += t.Bytes
			dyn += t.Bytes
		}
	}
	atMaster[master] = sent
	return dyn
}

// activate scatters along one adjacency list of a changed vertex, parts being
// its slice of the placement column. Adding zero is a no-op, so a policy with
// no per-edge scatter charge (GraphX) skips the placement lookups and builds
// no column for them.
func (pl placement) activate(ch *Charges, nbrs []graph.VertexID, parts []uint8, ms *meters, nb bitset) int64 {
	charged := ch.scatterCharged()
	masters := pl.a.Masters
	for i, u := range nbrs {
		if charged {
			p := parts[i]
			ms.Work[p] += ch.ScatterEdgeNs
			if um := masters[u]; um >= 0 && pl.machine[p] != pl.machine[um] {
				ms.Out[p] += ch.SignalBytes
				ms.In[um] += ch.SignalBytes
			}
		}
		nb.Set(int(u))
	}
	return int64(len(nbrs))
}

// scan charges ns of work per edge of one gathered list, to the partition
// holding the edge: parts is the list's slice of the placement column.
func scan(parts []uint8, ns float64, ms *meters) int64 {
	work := ms.Work
	for _, p := range parts {
		work[p] += ns
	}
	return int64(len(parts))
}

// view is one direction of the CSR as a visit reads it: the neighbor lists
// and, parallel to them, the placement column — col[i] is the partition of
// the edge at adjacency slot i. col is nil when the run charges no edge of
// the direction.
type view struct {
	index []int32
	nbrs  []graph.VertexID
	col   []uint8
}

// newView takes one direction of the CSR and, if charged, builds its
// placement column by range on sh's workers: the one pass through the edge
// ids a run makes.
func newView(adj graph.Adjacency, a *partition.Assignment, charged bool, sh *sharder) *view {
	vw := &view{index: adj.Index, nbrs: adj.Neighbors}
	if charged {
		eids, edgeParts := adj.EdgeIDs, a.EdgeParts
		vw.col = make([]uint8, len(eids))
		sh.Do(len(eids), func(lo, hi int) {
			for i, e := range eids[lo:hi] {
				vw.col[lo+i] = uint8(edgeParts[e])
			}
		})
	}
	return vw
}

// list returns v's neighbors and their slice of the column (nil without one).
func (vw *view) list(v graph.VertexID) ([]graph.VertexID, []uint8) {
	lo, hi := vw.index[v], vw.index[v+1]
	if vw.col == nil {
		return vw.nbrs[lo:hi], nil
	}
	return vw.nbrs[lo:hi], vw.col[lo:hi]
}

// degree is the degree in direction d of a vertex with the given in- and
// out-list lengths. In the gather direction it is what makes a vertex narrow:
// hybrid-cut partitions by in-degree, and an in-gathering vertex with few
// in-edges is low-degree no matter how many out-edges it has (§6.2.1).
func (d Direction) degree(in, out int) int {
	switch d {
	case DirIn:
		return in
	case DirOut:
		return out
	}
	return in + out
}

// Execution is what one Execute call leaves behind.
type Execution[V any] struct {
	Values []V
	// Run holds the simulated clock and the per-machine meters.
	Run *cluster.Run
	// StepSeconds is the simulated duration of each superstep executed.
	StepSeconds []float64
	// Converged reports an empty frontier (or, for a Reactivator, a
	// superstep without changes) at or before the step cap.
	Converged bool
	// Edges counts gather+scatter edge visits.
	Edges int64
	// PeakDynBytes is the largest per-machine mean of the bytes the
	// Transfers (Gathered, Applied and Shipped) moved in one superstep.
	PeakDynBytes float64
}

// Execute runs prog over the partitioned graph on the simulated cluster,
// charging as ch says: ch is data, and the loop evaluates it against the
// placement — row words, masters, per-machine masks and the edges' partitions
// in adjacency order — calling nothing per visit. It is the one
// superstep loop of the repo: Init and InitiallyActive, the gather scan, Apply
// for replicated and isolated vertices, the commit, scatter activation,
// Reactivator voting and the step cap live here and nowhere else.
//
// The graph's CSR is taken once, as two views, and a visit slices them: the
// program folds a whole neighbor list per Gather call (its own loop,
// statically dispatched), and Execute charges that list's edges in a loop of
// its own over the view's placement column, so no call through prog sits in a
// per-edge loop and no edge id is read after the columns are built. A
// direction gets a column only if it is gathered, or scattered with a
// per-edge charge.
//
// maxSteps ≤ 0 runs to convergence. allActive puts every vertex — isolated
// ones included — in every superstep's frontier (the paper's "PageRank(10)").
//
// Each phase (gather+apply, commit, scatter) executes on up to workers
// goroutines (≤0 means GOMAXPROCS) over contiguous shards of its work list;
// a phase too small to be worth a hand-off runs its shards on the caller.
// The shard structure depends only on the list's length and all
// floating-point meters merge in shard order, so every worker count —
// including 1, which is the same code run inline — produces byte-identical
// results. a and cfg must agree on the partition count, which is at most
// MaxParts (a column entry is one byte), and cfg must be valid; the systems'
// Run functions check all three.
func Execute[V, A any](prog Program[V, A], a *partition.Assignment, cfg cluster.Config, model cluster.CostModel,
	ch Charges, maxSteps int, allActive bool, workers int) *Execution[V] {
	g := a.G
	n := g.NumVertices()

	vals := make([]V, n)
	newVals := make([]V, n)
	nextActive := newBitset(n)
	frontier := make([]graph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		vals[v] = prog.Init(g, graph.VertexID(v))
		if prog.InitiallyActive(g, graph.VertexID(v)) {
			frontier = append(frontier, graph.VertexID(v))
		}
	}

	ex := &Execution[V]{Values: vals, Run: cluster.NewRun(cfg, model)}
	work := make([]float64, a.NumParts)
	inBytes := make([]float64, a.NumParts)
	outBytes := make([]float64, a.NumParts)
	sh := newSharder(workers, a.NumParts, n)
	var changedList []graph.VertexID

	gatherDir, scatterDir := prog.GatherDir(), prog.ScatterDir()
	reactivator, _ := any(prog).(Reactivator[V])

	// The phase closures are built every superstep and capture what they
	// use: two pointers, not the views' eighteen words.
	inAdj, outAdj := g.Adjacency()
	in := newView(inAdj, a, gatherDir.in() || ch.scatterCharged() && scatterDir.in(), sh)
	out := newView(outAdj, a, gatherDir.out() || ch.scatterCharged() && scatterDir.out(), sh)

	pl := newPlacement(a, cfg)
	masters := a.Masters

	for step := 0; ; step++ {
		if maxSteps > 0 && step >= maxSteps {
			ex.Converged = len(frontier) == 0
			break
		}
		if allActive {
			frontier = frontier[:0]
			for v := 0; v < n; v++ {
				frontier = append(frontier, graph.VertexID(v))
			}
		}
		if len(frontier) == 0 {
			ex.Converged = true
			break
		}
		for p := range work {
			work[p], inBytes[p], outBytes[p] = ch.StepFloorNs, 0, 0
		}

		// ---- Gather + Apply ----
		// Embarrassingly parallel over the frontier: each shard reads vals
		// and writes newVals only at its own vertices' indexes, metering
		// into its private scratch. The merged change list is in frontier
		// order, exactly as a sequential loop produces it.
		var gatherEdges int64
		var dynBytes float64
		changedList, gatherEdges, dynBytes = sh.Meter(len(frontier), work, inBytes, outBytes, changedList,
			func(lo, hi int, ms *meters, chg []graph.VertexID) ([]graph.VertexID, int64, float64) {
				var edges int64
				var dyn float64
				for _, v := range frontier[lo:hi] {
					inNbrs, inParts := in.list(v)
					outNbrs, outParts := out.list(v)
					var acc A
					hasAcc := false
					if gatherDir.in() {
						acc = prog.Gather(g, v, DirIn, inNbrs, vals, acc, false)
						hasAcc = len(inNbrs) > 0
						edges += scan(inParts, ch.GatherEdgeNs, ms)
					}
					if gatherDir.out() {
						acc = prog.Gather(g, v, DirOut, outNbrs, vals, acc, hasAcc)
						hasAcc = hasAcc || len(outNbrs) > 0
						edges += scan(outParts, ch.GatherEdgeNs, ms)
					}

					// An isolated vertex (master < 0) has no replicas and no
					// network, but its value still evolves through Apply
					// (PageRank's (1−d) floor, K-core removal of degree-0
					// vertices).
					master := int(masters[v])
					narrow := gatherDir.degree(len(inNbrs), len(outNbrs)) <= ch.NarrowDegree
					dyn = pl.charge(ch.Gathered, true, v, master, narrow, ms, dyn)
					nv, changed := prog.Apply(g, v, vals[v], acc, hasAcc)
					newVals[v] = nv
					if changed {
						chg = append(chg, v)
					}
					if master >= 0 {
						ms.Work[master] += model.ApplyVertexNs
						if changed || !(narrow && ch.NarrowSyncOnChange) {
							dyn = pl.charge(ch.Applied, false, v, master, narrow, ms, dyn)
						}
					}
				}
				return chg, edges, dyn
			})

		// Commit applied values (disjoint indexes; no meters).
		sh.Do(len(frontier), func(lo, hi int) {
			for _, v := range frontier[lo:hi] {
				vals[v] = newVals[v]
			}
		})

		// ---- Scatter: changed vertices activate neighbors ----
		// Meters stay per-shard; activation bits go to per-worker bitmaps
		// merged by OR (commutative and idempotent, so the merged frontier
		// is independent of shard→worker scheduling).
		scatterEdges, shippedBytes := sh.Scatter(len(changedList), work, inBytes, outBytes, nextActive,
			func(lo, hi int, ms *meters, nb bitset) (int64, float64) {
				var edges int64
				var dyn float64
				for _, v := range changedList[lo:hi] {
					inNbrs, inParts := in.list(v)
					outNbrs, outParts := out.list(v)
					narrow := gatherDir.degree(len(inNbrs), len(outNbrs)) <= ch.NarrowDegree
					dyn = pl.charge(ch.Shipped, false, v, int(masters[v]), narrow, ms, dyn)
					if scatterDir.out() {
						edges += pl.activate(&ch, outNbrs, outParts, ms, nb)
					}
					if scatterDir.in() {
						edges += pl.activate(&ch, inNbrs, inParts, ms, nb)
					}
				}
				return edges, dyn
			})
		ex.Edges += gatherEdges + scatterEdges
		dynBytes += shippedBytes

		if ch.WorkMult != 1 {
			for p := range work {
				work[p] *= ch.WorkMult
			}
		}
		before := ex.Run.SimSeconds
		ex.Run.StepPartitioned(work, inBytes, outBytes)
		ex.StepSeconds = append(ex.StepSeconds, ex.Run.SimSeconds-before)
		if d := dynBytes / float64(cfg.Machines); d > ex.PeakDynBytes {
			ex.PeakDynBytes = d
		}

		// Programs with Pregel-style voting (Reactivator) keep vertices
		// active until the round produces no changes: bulk-iterative
		// applications like K-core re-examine the whole remaining
		// subgraph each round (§3.3.3). Shard boundaries fall on bitset
		// words, so concurrent Set calls never touch the same word.
		if reactivator != nil {
			if len(changedList) == 0 {
				ex.Converged = true
				break
			}
			sh.Do(len(nextActive), func(wlo, whi int) {
				for v := wlo * 64; v < min(whi*64, n); v++ {
					if !nextActive.Get(v) && reactivator.StayActive(g, graph.VertexID(v), vals[v]) {
						nextActive.Set(v)
					}
				}
			})
		}

		frontier = frontier[:0]
		nextActive.ForEach(func(i int) {
			frontier = append(frontier, graph.VertexID(i))
		})
	}
	return ex
}
