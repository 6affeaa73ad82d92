package engine

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"graphpart/internal/cluster"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// wideCluster is 25 machines of 4 partitions: 100 parts, so every row spans
// two words and each machine's mask has bits in both.
var wideCluster = cluster.Config{Machines: 25, PartsPerMachine: 4}

func wideAssignment(t *testing.T) *partition.Assignment {
	t.Helper()
	g := gen.PrefAttach("wide", 3000, 6, 0x7)
	a, err := partition.Partition(g, partition.MustNew("HDRF", partition.Options{}), wideCluster.NumParts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if reps, _, _ := a.Rows(0); len(reps) != 2 {
		t.Fatalf("a %d-part row has %d words, want 2", a.NumParts, len(reps))
	}
	return a
}

// TestPlacementColumnMatchesEdgeParts: a view's column holds, at every
// adjacency slot, the partition of the edge there — in both directions, built
// by range at one and at three workers — and an uncharged view builds none.
func TestPlacementColumnMatchesEdgeParts(t *testing.T) {
	a := wideAssignment(t)
	inAdj, outAdj := a.G.Adjacency()
	for _, workers := range []int{1, 3} {
		sh := newSharder(workers, a.NumParts, a.G.NumVertices())
		for dir, adj := range map[string]graph.Adjacency{"in": inAdj, "out": outAdj} {
			col := newView(adj, a, true, sh).col
			if len(col) != len(adj.EdgeIDs) {
				t.Fatalf("workers=%d %s: column has %d slots, CSR %d", workers, dir, len(col), len(adj.EdgeIDs))
			}
			for i, e := range adj.EdgeIDs {
				if want := a.EdgeParts[e]; int32(col[i]) != want {
					t.Fatalf("workers=%d %s: col[%d] = %d, edge %d is on %d", workers, dir, i, col[i], e, want)
				}
			}
			if vw := newView(adj, a, false, sh); vw.col != nil {
				t.Errorf("workers=%d %s: an uncharged view built a column", workers, dir)
			}
		}
	}
}

// chargePerBit is charge as it was before the machine masks: one
// partition→machine lookup per reached mirror. It is the oracle
// TestChargeMatchesPerBitWalk holds the masked walk to.
func (pl placement) chargePerBit(t Transfer, toMaster bool, v graph.VertexID, master int, narrow bool, ms *meters, dyn float64) float64 {
	if master < 0 || t.Bytes == 0 && t.MirrorNs == 0 {
		return dyn
	}
	atMaster, atMirror := ms.Out, ms.In
	if toMaster {
		atMaster, atMirror = ms.In, ms.Out
	}
	reps, in, out := pl.a.Rows(v)
	mm := pl.machine[master]
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
		for ; w != 0; w &= w - 1 {
			p := wi<<6 + bits.TrailingZeros64(w)
			if t.MirrorNs != 0 {
				ms.Work[p] += t.MirrorNs
			}
			if pl.machine[p] != mm {
				atMaster[master] += t.Bytes
				atMirror[p] += t.Bytes
				dyn += t.Bytes
			}
		}
	}
	return dyn
}

// TestChargeMatchesPerBitWalk: over every vertex of a 100-part HDRF
// assignment on 25×4 machines, the masked charge leaves Work, In, Out and
// the running byte sum it threads bit for bit where the per-bit walk does, for every narrow direction,
// both flows and narrow or not. The prices are fractions, so a changed order
// of additions would show in the low bits.
func TestChargeMatchesPerBitWalk(t *testing.T) {
	a := wideAssignment(t)
	pl := newPlacement(a, wideCluster)
	for _, d := range []Direction{DirNone, DirIn, DirOut, DirBoth} {
		for _, toMaster := range []bool{false, true} {
			for _, narrow := range []bool{false, true} {
				tr := Transfer{Bytes: 1.0 / 3, MirrorNs: 0.1, Narrow: d}
				got, want := newMeters(a.NumParts), newMeters(a.NumParts)
				var gotDyn, wantDyn float64
				for v := range a.G.NumVertices() {
					master := int(a.Masters[v])
					gotDyn = pl.charge(tr, toMaster, graph.VertexID(v), master, narrow, &got, gotDyn)
					wantDyn = pl.chargePerBit(tr, toMaster, graph.VertexID(v), master, narrow, &want, wantDyn)
				}
				name := func(meter string) string {
					return fmt.Sprintf("%s (Narrow %v, toMaster %v, narrow %v)", meter, d, toMaster, narrow)
				}
				if math.Float64bits(gotDyn) != math.Float64bits(wantDyn) {
					t.Errorf("%s = %v, per-bit walk %v", name("Dyn"), gotDyn, wantDyn)
				}
				for meter, pair := range map[string][2][]float64{"Work": {got.Work, want.Work}, "In": {got.In, want.In}, "Out": {got.Out, want.Out}} {
					for p := range pair[0] {
						if math.Float64bits(pair[0][p]) != math.Float64bits(pair[1][p]) {
							t.Errorf("%s[%d] = %v, per-bit walk %v", name(meter), p, pair[0][p], pair[1][p])
							break
						}
					}
				}
			}
		}
	}
}
