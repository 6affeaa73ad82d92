package partition

import (
	"fmt"
	"math/bits"

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
		return newGridAssigner(numParts, side, numParts, seed), nil
	}}
	// resilientGrid is the thesis's non-square-tolerant Grid (§9.1): the
	// grid is built at the next perfect square ≥ P and chosen partitions are
	// mapped back down modulo P (potentially unbalancing load, as the thesis
	// notes for 2D in §7.2.3).
	resilientGrid = &hashStrategy{"ResilientGrid", func(numParts int, seed uint64) (Assigner, error) {
		side := ceilSqrt(numParts)
		return newGridAssigner(side*side, side, numParts, seed), nil
	}}
)

// gridAssigner places each edge on a deterministic member of S(u)∩S(v) for
// a side×side grid of gridParts partitions, mapped down modulo mod.
type gridAssigner struct {
	gridParts uint64
	side      uint64
	recip     uint64 // ⌈2⁶⁴/side⌉ mod 2⁶⁴: h/side is the high word of recip·h
	mod       uint64
	seed      uint64
}

func newGridAssigner(gridParts, side, mod int, seed uint64) *gridAssigner {
	return &gridAssigner{
		gridParts: uint64(gridParts),
		side:      uint64(side),
		recip:     ^uint64(0)/max(uint64(side), 1) + 1, // no parts at all fails in Assign, as % does
		mod:       uint64(mod),
		seed:      seed,
	}
}

// Assign splits each endpoint's grid cell h < gridParts into its row
// h/side and column without a divide: the reciprocal quotient, the high word
// of recip·h, is exact for 32-bit numerators and divisors (Lemire, Kaser &
// Kurz, "Faster Remainder by Direct Computation", 2019), and h < side² < 2³²
// for every int32 part count. At side 1 recip wraps to 0, which still gives
// h = 0 its row 0.
func (a *gridAssigner) Assign(e graph.Edge) int32 {
	hu := hashing.Vertex(a.seed, e.Src) % a.gridParts
	hv := hashing.Vertex(a.seed, e.Dst) % a.gridParts
	ru, _ := bits.Mul64(a.recip, hu)
	rv, _ := bits.Mul64(a.recip, hv)
	cu, cv := hu-ru*a.side, hv-rv*a.side
	// S(u)∩S(v) always contains the two "corner" machines (ru,cv) and
	// (rv,cu); when u and v share a row or column the intersection is
	// that whole line. PowerGraph hashes the edge over the distinct
	// corners: the hash's low bit picks one, and when the corners coincide
	// both picks are that corner.
	c0, c1 := ru*a.side+cv, rv*a.side+cu
	odd := -(hashing.EdgeCanonical(a.seed^0x96d, e.Src, e.Dst) & 1)
	c := c0 ^ (c0^c1)&odd
	// c < side² ≤ 2·mod (side is ⌈√mod⌉), so one subtract is the modulo.
	if c >= a.mod {
		c -= a.mod
	}
	return int32(c)
}
