package partition

import (
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

var (
	// grid is PowerGraph's constrained Grid partitioning (§5.2.3, from the
	// GraphBuilder paper): machines form a √P×√P matrix; a vertex's
	// constraint set S(v) is the row plus column of the machine it hashes
	// to; an edge (u,v) is placed on a partition in S(u)∩S(v), which is
	// never empty and bounds the replication factor by 2√P−1. As in
	// PowerGraph, P must be a perfect square.
	grid = &hashStrategy{"Grid", func(numParts int, seed uint64) (Assigner, error) {
		side := ceilSqrt(numParts)
		if side*side != numParts {
			return nil, fmt.Errorf("grid: numParts=%d is not a perfect square", numParts)
		}
		return gridAssigner{gridParts: numParts, side: side, mod: numParts, seed: seed}, nil
	}}
	// resilientGrid is the thesis's non-square-tolerant Grid (§9.1): the
	// grid is built at the next perfect square ≥ P and chosen partitions are
	// mapped back down modulo P (potentially unbalancing load, as the thesis
	// notes for 2D in §7.2.3).
	resilientGrid = &hashStrategy{"ResilientGrid", func(numParts int, seed uint64) (Assigner, error) {
		side := ceilSqrt(numParts)
		return gridAssigner{gridParts: side * side, side: side, mod: numParts, seed: seed}, nil
	}}
)

// gridAssigner places each edge on a deterministic member of S(u)∩S(v) for
// a side×side grid of gridParts partitions, mapped down modulo mod.
type gridAssigner struct {
	gridParts int
	side      int
	mod       int
	seed      uint64
}

func (a gridAssigner) Assign(e graph.Edge) int32 {
	hu := int(hashing.Vertex(a.seed, e.Src) % uint64(a.gridParts))
	hv := int(hashing.Vertex(a.seed, e.Dst) % uint64(a.gridParts))
	ru, cu := hu/a.side, hu%a.side
	rv, cv := hv/a.side, hv%a.side
	// S(u)∩S(v) always contains the two "corner" machines (ru,cv) and
	// (rv,cu); when u and v share a row or column the intersection is
	// that whole line. PowerGraph hashes the edge over the candidates.
	var cands [2]int
	n := 0
	cands[n] = ru*a.side + cv
	n++
	if c := rv*a.side + cu; c != cands[0] {
		cands[n] = c
		n++
	}
	pick := hashing.EdgeCanonical(a.seed^0x96d, e.Src, e.Dst) % uint64(n)
	return int32(cands[pick] % a.mod)
}
