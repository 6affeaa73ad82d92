package partition

import (
	"fmt"
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

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

// TestHDRFMemoMatchesFormulaUnderChurn drives two loaders seeded alike, one
// through hdrfPick and one through refHDRFPick, with random adds interleaved
// with deletes. Phases alternate between mostly adding and mostly deleting,
// so loads fall and then rise back to keys the balance memo has seen before.
// After every add both must have picked the same partition and their random
// streams must still agree.
func TestHDRFMemoMatchesFormulaUnderChurn(t *testing.T) {
	type placed struct {
		e graph.Edge
		p int32
	}
	for _, lambda := range []float64{0.5, 1, 2} {
		for _, parts := range []int{16, 100} {
			t.Run(fmt.Sprintf("lambda=%v/parts=%d", lambda, parts), func(t *testing.T) {
				h := HDRF{Lambda: lambda}
				got := h.NewLoader(0, parts, 0, 11).(*greedyLoader)
				ref := h.NewLoader(0, parts, 0, 11).(*greedyLoader)
				drive := hashing.NewRNG(uint64(parts) + uint64(4*lambda))
				var live []placed
				for step := 0; step < 20_000; step++ {
					deleteOdds := 2 // in 10
					if step/1000%2 == 1 {
						deleteOdds = 8
					}
					if len(live) > 0 && drive.Intn(10) < deleteOdds {
						k := drive.Intn(len(live))
						d := live[k]
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						got.ObserveDelete(d.e, d.p)
						ref.ObserveDelete(d.e, d.p)
						continue
					}
					e := graph.Edge{Src: graph.VertexID(drive.Intn(300)), Dst: graph.VertexID(drive.Intn(300))}
					p := got.Assign(e)
					ref.st.cover(e)
					want := refHDRFPick(ref.st, e, parts, lambda)
					ref.st.place(e, want)
					if int(p) != want {
						t.Fatalf("step %d: %v placed on %d, formula picks %d", step, e, p, want)
					}
					if g, w := got.st.rng.Uint64(), ref.st.rng.Uint64(); g != w {
						t.Fatalf("step %d: next random %x, formula's %x", step, g, w)
					}
					live = append(live, placed{e, p})
				}
			})
		}
	}
}
