package partition

import (
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// pds is PowerGraph's perfect-difference-set constrained partitioning
// (§5.2.3): with P = p²+p+1 for prime p, a perfect difference set D of size
// p+1 exists modulo P, and the constraint sets S(v) = {(d+h(v)) mod P : d ∈
// D} of any two vertices intersect in exactly one partition — giving a
// replication bound of p+1 ≈ √P, tighter than Grid's 2√P−1.
//
// The paper excludes PDS from its measurements because no cluster size
// satisfies both PDS's and Grid's constraints simultaneously (§5.2.3); we
// implement it anyway for completeness and test it at P ∈ {7, 13, 21?...}.
// The assigner carries a scratch membership array, so create one per
// goroutine.
var pds = &hashStrategy{"PDS", func(numParts int, seed uint64) (Assigner, error) {
	ds, err := perfectDifferenceSet(numParts)
	if err != nil {
		return nil, err
	}
	return &pdsAssigner{parts: numParts, seed: seed, ds: ds, inSu: make([]bool, numParts)}, nil
}}

type pdsAssigner struct {
	parts int
	seed  uint64
	ds    []int
	inSu  []bool // scratch: constraint-set membership of S(u)
}

// Assign finds, for machines hu and hv, the unique common element of S(u)
// and S(v): (d1+hu) ≡ (d2+hv) mod P for exactly one pair (d1,d2) when
// hu≠hv; find it by marking S(u) and scanning S(v).
func (a *pdsAssigner) Assign(e graph.Edge) int32 {
	numParts, ds := a.parts, a.ds
	hu := int(hashing.Vertex(a.seed, e.Src) % uint64(numParts))
	hv := int(hashing.Vertex(a.seed, e.Dst) % uint64(numParts))
	for _, d := range ds {
		a.inSu[(d+hu)%numParts] = true
	}
	chosen := -1
	nFound := 0
	for _, d := range ds {
		c := (d + hv) % numParts
		if a.inSu[c] {
			nFound++
			if chosen < 0 {
				chosen = c
			}
		}
	}
	if nFound > 1 {
		// hu == hv: S(u) == S(v); hash the edge over the whole set.
		chosen = (ds[hashing.EdgeCanonical(a.seed^0x9d5, e.Src, e.Dst)%uint64(len(ds))] + hu) % numParts
	}
	for _, d := range ds {
		a.inSu[(d+hu)%numParts] = false
	}
	return int32(chosen)
}

// perfectDifferenceSet finds a perfect difference set modulo n, i.e. a set
// D of size k with k(k−1) = n−1 such that every nonzero residue mod n is
// expressible as a difference of two elements of D in exactly one way.
// Such sets exist for n = p²+p+1, p prime (Singer). The search is a small
// backtracking exact-cover search, fine for the cluster sizes that matter
// (n ≤ a few hundred).
func perfectDifferenceSet(n int) ([]int, error) {
	// k(k-1) = n-1 must have an integer solution.
	k := 1
	for k*(k-1) < n-1 {
		k++
	}
	if k*(k-1) != n-1 {
		return nil, fmt.Errorf("pds: no perfect difference set modulo %d (need p²+p+1 machines)", n)
	}
	if n == 1 {
		return []int{0}, nil
	}
	used := make([]bool, n) // used[d] = difference d already produced
	set := make([]int, 0, k)
	set = append(set, 0)
	var search func(next int) bool
	search = func(next int) bool {
		if len(set) == k {
			return true
		}
		for c := next; c < n; c++ {
			// The differences c introduces must be unused so far *and*
			// mutually distinct (two existing elements could otherwise
			// produce the same new difference against c).
			ok := true
			newDiffs := make(map[int]bool, 2*len(set))
			for _, s := range set {
				d1 := (c - s + n) % n
				d2 := (s - c + n) % n
				if used[d1] || used[d2] || d1 == d2 || newDiffs[d1] || newDiffs[d2] {
					ok = false
					break
				}
				newDiffs[d1] = true
				newDiffs[d2] = true
			}
			if !ok {
				continue
			}
			for _, s := range set {
				used[(c-s+n)%n] = true
				used[(s-c+n)%n] = true
			}
			set = append(set, c)
			if search(c + 1) {
				return true
			}
			set = set[:len(set)-1]
			for _, s := range set {
				used[(c-s+n)%n] = false
				used[(s-c+n)%n] = false
			}
		}
		return false
	}
	if !search(1) {
		return nil, fmt.Errorf("pds: no perfect difference set found modulo %d", n)
	}
	out := make([]int, k)
	copy(out, set)
	return out, nil
}
