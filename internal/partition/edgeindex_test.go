package partition

import (
	"fmt"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// refLiveIndex is the live-edge bookkeeping PartitionState kept before
// edgeIndex: a map from edge key to every live position of the edge, in
// insertion order, beside a live list whose order it maintains the same
// way (delete the newest copy, move the tail into the hole).
type refLiveIndex struct {
	live  []liveEdge // e and p only
	index map[uint64][]int32
}

func (r *refLiveIndex) unlink(e graph.Edge) (int32, error) {
	key := edgeKey(e)
	lst := r.index[key]
	if len(lst) == 0 {
		return -1, fmt.Errorf("partition: delete of edge (%d,%d) which is not live", e.Src, e.Dst)
	}
	pos := lst[len(lst)-1]
	if len(lst) == 1 {
		delete(r.index, key)
	} else {
		r.index[key] = lst[:len(lst)-1]
	}
	p := r.live[pos].p
	last := int32(len(r.live) - 1)
	if pos != last {
		moved := r.live[last]
		r.live[pos] = moved
		mlst := r.index[edgeKey(moved.e)]
		for i := len(mlst) - 1; i >= 0; i-- {
			if mlst[i] == last {
				mlst[i] = pos
				break
			}
		}
	}
	r.live = r.live[:last]
	return p, nil
}

func (r *refLiveIndex) link(e graph.Edge, p int32) {
	pos := int32(len(r.live))
	r.live = append(r.live, liveEdge{e: e, p: p})
	key := edgeKey(e)
	r.index[key] = append(r.index[key], pos)
}

// TestLiveIndexMatchesReference drives a PartitionState and refLiveIndex
// through the same random batches over 8 vertices, where duplicates,
// self-loops, deletes of a non-live edge and tail swaps between copies of
// one edge are common, and after every batch compares the live order, each
// position's partition and the error. Placements of new edges come from
// the state (incremental strategies) or from a one-shot pass over the
// reference's own live list (H-Ginger, which rebuilds per batch).
func TestLiveIndexMatchesReference(t *testing.T) {
	const parts = 4
	for _, name := range []string{"Random", "2D", "HDRF", "H-Ginger"} {
		t.Run(name, func(t *testing.T) {
			s := MustNew(name, Options{})
			st, err := NewPartitionState(s, parts, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := refLiveIndex{index: map[uint64][]int32{}}
			rng := hashing.NewRNG(uint64(len(name)))
			edge := func() graph.Edge {
				return graph.Edge{Src: graph.VertexID(rng.Intn(8)), Dst: graph.VertexID(rng.Intn(8))}
			}
			for batch := 0; batch < 400; batch++ {
				var adds, dels []graph.Edge
				for i := rng.Intn(7); i > 0; i-- {
					adds = append(adds, edge())
				}
				for i := rng.Intn(7); i > 0 && len(ref.live) > 0; i-- {
					if rng.Intn(20) == 0 {
						dels = append(dels, edge()) // live or not
					} else {
						dels = append(dels, ref.live[rng.Intn(len(ref.live))].e)
					}
				}
				_, gotErr := st.ApplyBatch(adds, dels)
				var wantErr error
				for _, e := range dels {
					if _, wantErr = ref.unlink(e); wantErr != nil {
						break
					}
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("batch %d: error %v, reference %v", batch, gotErr, wantErr)
				}
				if wantErr == nil {
					for _, e := range adds {
						ref.link(e, st.live[len(ref.live)].p)
					}
					if !st.Incremental() {
						edges := make([]graph.Edge, len(ref.live))
						for i := range ref.live {
							edges[i] = ref.live[i].e
						}
						a, err := ParallelPartition(graph.FromEdges("live", edges), s, parts, 1, 1)
						if err != nil {
							t.Fatal(err)
						}
						for i := range ref.live {
							ref.live[i].p = a.EdgeParts[i]
						}
					}
				}
				if len(st.live) != len(ref.live) || st.index.n != len(ref.index) {
					t.Fatalf("batch %d: %d live edges under %d keys, reference %d under %d",
						batch, len(st.live), st.index.n, len(ref.live), len(ref.index))
				}
				for i := range ref.live {
					if st.live[i].e != ref.live[i].e || st.live[i].p != ref.live[i].p {
						t.Fatalf("batch %d: position %d holds %v on %d, reference %v on %d",
							batch, i, st.live[i].e, st.live[i].p, ref.live[i].e, ref.live[i].p)
					}
				}
			}
		})
	}
}

// TestEdgeIndexAgainstMap runs random puts, moves, deletes and lookups on
// an edgeIndex and a Go map side by side. With multiplier 1 a key's home
// slot is its top bits, so keys whose source id is within 64 of the top all
// share the last slot of the table: one cluster that wraps past the end,
// where every delete must shift its successors back. The seeded multiplier
// runs the same script over spread keys.
func TestEdgeIndexAgainstMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    edgeIndex
		src  func(*hashing.RNG) uint32
	}{
		{"one cluster", edgeIndex{mul: 1}, func(r *hashing.RNG) uint32 { return 1<<32 - 1 - uint32(r.Intn(64)) }},
		{"seeded", newEdgeIndex(), func(r *hashing.RNG) uint32 { return uint32(r.Intn(1 << 20)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, want := tc.x, map[uint64]int32{}
			rng := hashing.NewRNG(3)
			for op := 0; op < 20_000; op++ {
				key := edgeKey(graph.Edge{Src: tc.src(rng), Dst: graph.VertexID(rng.Intn(8))})
				old, ok := want[key]
				if !ok {
					old = -1
				}
				pos := int32(rng.Intn(1 << 30))
				switch r := rng.Intn(10); {
				case r < 5:
					if prev := x.put(key, pos); prev != old {
						t.Fatalf("op %d: put %#x returned %d, want %d", op, key, prev, old)
					}
					want[key] = pos
				case r < 6 && ok:
					x.set(key, pos)
					want[key] = pos
				case r < 9 && ok:
					x.del(key)
					delete(want, key)
				default:
					if got := x.get(key); got != old {
						t.Fatalf("op %d: get %#x = %d, want %d", op, key, got, old)
					}
				}
				if x.n != len(want) {
					t.Fatalf("op %d: %d keys, want %d", op, x.n, len(want))
				}
				if op%97 == 0 {
					for k, v := range want {
						if got := x.get(k); got != v {
							t.Fatalf("op %d: get %#x = %d, want %d", op, k, got, v)
						}
					}
				}
			}
			if tc.x.mul == 1 && x.home(edgeKey(graph.Edge{Src: 1<<32 - 1})) != len(x.slots)-1 {
				t.Fatal("the one-cluster keys do not home on the last slot")
			}
		})
	}
}

// TestDegreeIsRefRowSum: a vertex's row of endpoint counts sums to a
// recount of its live degree over LiveEdges (a self-loop counting twice)
// after churn with self-loops and duplicates, an explicit rebuild, and a
// strategy that rebuilds every batch.
func TestDegreeIsRefRowSum(t *testing.T) {
	for _, name := range []string{"HDRF", "H-Ginger"} {
		t.Run(name, func(t *testing.T) {
			st, err := NewPartitionState(MustNew(name, Options{}), 4, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			rng := hashing.NewRNG(9)
			check := func(when string) {
				t.Helper()
				deg := make([]int, st.NumVertices())
				for _, e := range st.LiveEdges() {
					deg[e.Src]++
					deg[e.Dst]++
				}
				for v, d := range deg {
					sum := 0
					for p := 0; p < st.numParts; p++ {
						sum += int(st.ref.get(v, p))
					}
					if sum != d {
						t.Fatalf("%s: vertex %d's ref row sums to %d, recount %d", when, v, sum, d)
					}
				}
			}
			churn := func(when string, batches int) {
				for b := 0; b < batches; b++ {
					var adds, dels []graph.Edge
					for i := rng.Intn(12); i > 0; i-- {
						v := graph.VertexID(rng.Intn(30))
						adds = append(adds, graph.Edge{Src: v, Dst: graph.VertexID(rng.Intn(30))},
							graph.Edge{Src: v, Dst: v})
					}
					live := st.LiveEdges()
					for i := rng.Intn(10); i > 0 && len(live) > 0; i-- {
						j := rng.Intn(len(live))
						dels = append(dels, live[j])
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if _, err := st.ApplyBatch(adds, dels); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s batch %d", when, b))
				}
			}
			churn("cold", 20)
			if err := st.rebuild(); err != nil {
				t.Fatal(err)
			}
			check("rebuilt")
			churn("cold again", 10)
		})
	}
}

// BenchmarkApplyBatch prices one ApplyBatch at the service-churn workload's
// per-stream footprint: 75 000 live edges at 16 parts, walking round the
// second half of PrefAttach(50 000, 10) (about the block of the workload's
// HDRF client at two clients), so the state spans all 50 000 vertices.
// Each batch adds the n edges ahead of the window and deletes the n behind
// it, so every delete names a live edge. A sub-benchmark pre-loads once
// and carries the window across rounds, so neither the timings nor a CPU
// profile count the pre-load.
func BenchmarkApplyBatch(b *testing.B) {
	const preload = 75_000
	social := gen.PrefAttach("social", 50_000, 10, 1).Edges
	ring := social[len(social)/2:]
	for _, name := range []string{"2D", "HDRF"} {
		for _, n := range []int{4, 32, 256} {
			st, err := NewPartitionState(MustNew(name, Options{}), 16, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.ApplyBatch(ring[:preload], nil); err != nil {
				b.Fatal(err)
			}
			adds, dels := make([]graph.Edge, n), make([]graph.Edge, n)
			at := 0
			b.Run(fmt.Sprintf("%s/%d+%d", name, n, n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					for i := range n {
						adds[i] = ring[(at+preload+i)%len(ring)]
						dels[i] = ring[(at+i)%len(ring)]
					}
					if _, err := st.ApplyBatch(adds, dels); err != nil {
						b.Fatal(err)
					}
					at = (at + n) % len(ring)
				}
			})
		}
	}
}
