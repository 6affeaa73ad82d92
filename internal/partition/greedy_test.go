package partition

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// has reports one bit of a row: the per-partition membership lookup the
// reference picks below make in place of the loaders' row masks.
func (m *bitMatrix) has(row int, col int) bool {
	return m.bits[row*m.words+int(uint(col)/64)]&(1<<(uint(col)%64)) != 0
}

// refHDRFPick is HDRF's scoring loop written straight from the formula, one
// partition at a time: membership bit lookups, a fresh CBAL division per
// partition, no memo. hdrfPick must pick what it picks and draw the same
// random numbers for its ties.
func refHDRFPick(st *loaderState, e graph.Edge, numParts int, lambda float64) int {
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

// refObliviousPick is Oblivious's four cases written out as a candidate
// list — the intersection A(u)∩A(v), else the union, else every partition —
// and a left-to-right least-loaded scan over it that breaks each running
// tie with one draw, uniformly over the tied candidates as in PowerGraph.
// obliviousPick must pick what it picks and draw the same random numbers.
func refObliviousPick(st *loaderState, e graph.Edge, numParts int) int {
	var cands []int
	for _, in := range []func(p int) bool{
		func(p int) bool { return st.parts.has(int(e.Src), p) && st.parts.has(int(e.Dst), p) },
		func(p int) bool { return st.parts.has(int(e.Src), p) || st.parts.has(int(e.Dst), p) },
		func(int) bool { return true },
	} {
		for p := 0; p < numParts; p++ {
			if in(p) {
				cands = append(cands, p)
			}
		}
		if len(cands) > 0 {
			break
		}
	}
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

// greedyTwin drives two loaders of one strategy, seeded alike, through one
// add/delete stream: got through Assign and ObserveDelete, ref through the
// reference pick. After every step both must have picked the same
// partition and their random streams must still agree.
type greedyTwin struct {
	got, ref *greedyLoader
	parts    int
	step     int
	live     []placedEdge
}

type placedEdge struct {
	e graph.Edge
	p int32
}

// greedyStrategies are the loaders the exactness net drives: Oblivious, and
// HDRF at λ below, at and above 1 and at a subnormal λ, where two loads'
// balance terms round to one value and only the full scan is exact.
var greedyStrategies = []StreamingStrategy{
	oblivious{}, HDRF{Lambda: 0.5}, HDRF{Lambda: 1}, HDRF{Lambda: 2}, HDRF{Lambda: 8}, HDRF{Lambda: 0x1p-1070},
}

// greedyParts spans one word, a full word and rows wider than one word.
var greedyParts = []int{9, 16, 65, 100}

func newGreedyTwin(t testing.TB, s StreamingStrategy, parts int) *greedyTwin {
	tw := &greedyTwin{parts: parts}
	for _, ld := range []**greedyLoader{&tw.got, &tw.ref} {
		asg, err := s.NewLoader(0, parts, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		*ld = asg.(*greedyLoader)
	}
	return tw
}

func (tw *greedyTwin) add(t testing.TB, e graph.Edge) {
	tw.step++
	p := tw.got.Assign(e)
	tw.ref.st.cover(e)
	var want int
	if tw.ref.hdrf {
		want = refHDRFPick(tw.ref.st, e, tw.parts, tw.ref.lambda)
	} else {
		want = refObliviousPick(tw.ref.st, e, tw.parts)
	}
	tw.ref.st.place(e, want)
	if int(p) != want {
		t.Fatalf("step %d: %v placed on %d, formula picks %d", tw.step, e, p, want)
	}
	tw.live = append(tw.live, placedEdge{e, p})
	tw.check(t)
}

// del deletes the k-th live edge (mod the live count) from both loaders.
func (tw *greedyTwin) del(t testing.TB, k int) {
	if len(tw.live) == 0 {
		return
	}
	tw.step++
	k %= len(tw.live)
	d := tw.live[k]
	tw.live[k] = tw.live[len(tw.live)-1]
	tw.live = tw.live[:len(tw.live)-1]
	tw.got.ObserveDelete(d.e, d.p)
	tw.ref.ObserveDelete(d.e, d.p)
	tw.check(t)
}

// check compares the next random numbers, then holds got's levels to a
// recount of its loads: the distinct loads ascending (so at most one level
// per partition), each with the mask of its partitions, and each
// partition's level.
func (tw *greedyTwin) check(t testing.TB) {
	if g, w := tw.got.st.rng.Uint64(), tw.ref.st.rng.Uint64(); g != w {
		t.Fatalf("step %d: next random %x, formula's %x", tw.step, g, w)
	}
	st := tw.got.st
	loads := slices.Clone(st.load)
	slices.Sort(loads)
	loads = slices.Compact(loads)
	w := st.parts.words
	masks := make([]uint64, len(loads)*w)
	for p, l := range st.load {
		i, _ := slices.BinarySearch(loads, l)
		masks[i*w+p/64] |= 1 << (p % 64)
		if st.lvOf[p] != int32(i) {
			t.Fatalf("step %d: partition %d (load %d) on level %d, recount %d", tw.step, p, l, st.lvOf[p], i)
		}
	}
	if !slices.Equal(st.lvLoad, loads) || !slices.Equal(st.lvMask, masks) {
		t.Fatalf("step %d: levels %v %x, recount %v %x", tw.step, st.lvLoad, st.lvMask, loads, masks)
	}
}

// spread is the gap between the loader's highest and lowest load.
func (tw *greedyTwin) spread() int64 {
	lo, hi := tw.got.st.load[0], tw.got.st.load[0]
	for _, l := range tw.got.st.load {
		lo, hi = min(lo, l), max(hi, l)
	}
	return hi - lo
}

// TestGreedyMatchesFormulaUnderChurn drives every greedy loader beside its
// formula reference in four phases of 3 000 steps: mostly adds over 300
// vertices, mostly deletes, hub-heavy adds among 16 fresh vertices (the
// loaders pile them on few partitions, so loads spread over hundreds), then
// mostly deletes again, so deletes open levels mid-list and below the
// minimum.
func TestGreedyMatchesFormulaUnderChurn(t *testing.T) {
	for _, s := range greedyStrategies {
		for _, parts := range greedyParts {
			name := s.Name()
			if h, ok := s.(HDRF); ok {
				name = fmt.Sprintf("lambda=%v", h.Lambda)
			}
			t.Run(fmt.Sprintf("%s/parts=%d", name, parts), func(t *testing.T) {
				tw := newGreedyTwin(t, s, parts)
				drive := hashing.NewRNG(uint64(parts) + uint64(len(name)))
				var widest int64
				for step := 0; step < 12_000; step++ {
					phase := step / 3000
					deleteOdds := 2 // in 10
					if phase%2 == 1 {
						deleteOdds = 8
					}
					if drive.Intn(10) < deleteOdds {
						tw.del(t, drive.Intn(1<<30))
						continue
					}
					e := graph.Edge{Src: graph.VertexID(drive.Intn(300)), Dst: graph.VertexID(drive.Intn(300))}
					if phase == 2 {
						e = graph.Edge{Src: graph.VertexID(300 + drive.Intn(4)), Dst: graph.VertexID(304 + drive.Intn(12))}
					}
					tw.add(t, e)
					widest = max(widest, tw.spread())
				}
				if _, ok := s.(HDRF); !ok && widest < 100 {
					t.Fatalf("loads spread over at most %d, want the hub phase to reach 100", widest)
				}
			})
		}
	}
}

// FuzzGreedyMatchesFormula runs the exactness net over a byte-driven
// stream: data[0] picks the strategy and the part count from the test's
// sets, then each byte pair is a delete (first byte ≥ 0xc0, the second
// picks the live edge) or an add over 64 vertices.
func FuzzGreedyMatchesFormula(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3, 0xc0, 0, 1, 2})
	f.Add([]byte{7, 0, 4, 0, 5, 1, 4, 1, 5, 0xff, 3, 2, 9, 0xd0, 1})
	f.Add([]byte{19, 0, 0, 0, 1, 0, 2, 0, 3, 0xc1, 0, 0xc2, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := greedyStrategies[int(data[0])%len(greedyStrategies)]
		tw := newGreedyTwin(t, s, greedyParts[int(data[0])/len(greedyStrategies)%len(greedyParts)])
		for i := 1; i+1 < len(data); i += 2 {
			if data[i] >= 0xc0 {
				tw.del(t, int(data[i+1]))
				continue
			}
			tw.add(t, graph.Edge{Src: graph.VertexID(data[i] % 64), Dst: graph.VertexID(data[i+1] % 64)})
		}
	})
}

// TestHDRFRefusesBadLambda holds every ingress path to HDRF's λ check: a
// negative, NaN or infinite λ is refused by Partition, ParallelPartition
// (on an empty graph too), AsIncremental and NewPartitionState, and λ = 0
// places exactly as λ = 1.
func TestHDRFRefusesBadLambda(t *testing.T) {
	g := graph.FromEdges("lambda", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 1}})
	empty := graph.FromEdges("empty", nil)
	for _, lambda := range []float64{-1, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		h := HDRF{Lambda: lambda}
		if _, err := Partition(g, h, 16, 1); err == nil {
			t.Errorf("Partition accepts λ=%v", lambda)
		}
		for _, in := range []*graph.Graph{g, empty} {
			if _, err := ParallelPartition(in, h, 16, 1, 2); err == nil {
				t.Errorf("ParallelPartition accepts λ=%v on %d edges", lambda, in.NumEdges())
			}
		}
		if _, err := AsIncremental(h, 16, 1); err == nil {
			t.Errorf("AsIncremental accepts λ=%v", lambda)
		}
		if _, err := NewPartitionState(h, 16, 1, 1); err == nil {
			t.Errorf("NewPartitionState accepts λ=%v", lambda)
		}
	}
	zero, err := Partition(g, HDRF{}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Partition(g, HDRF{Lambda: 1}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(zero.EdgeParts, one.EdgeParts) {
		t.Errorf("λ=0 places %v, λ=1 %v", zero.EdgeParts, one.EdgeParts)
	}
}
