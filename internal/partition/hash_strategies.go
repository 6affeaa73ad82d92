package partition

import (
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// hashStrategy is one row of the hash family, the StatelessStrategy of every
// hash scheme: a name and the constructor of its per-edge Assigner. Each row
// is a package-level pointer, so New hands the same one out without
// allocating.
type hashStrategy struct {
	name        string
	newAssigner func(numParts int, seed uint64) (Assigner, error)
}

// Name implements Strategy.
func (s *hashStrategy) Name() string { return s.name }

// NewAssigner implements StatelessStrategy.
func (s *hashStrategy) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return s.newAssigner(numParts, seed)
}

// Partition implements Strategy.
func (s *hashStrategy) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
}

var (
	// random is PowerGraph's Random hash partitioning (§5.2.1): the hash
	// ignores edge direction, so (u,v) and (v,u) land on the same partition.
	random = &hashStrategy{"Random", newRandomAssigner}
	// canonicalRandom is GraphX's name for Random (§7.2.1), so GraphX
	// experiment output uses the paper's GraphX terminology.
	canonicalRandom = &hashStrategy{"CanonicalRandom", newRandomAssigner}
	// asymRandom is GraphX's "Random" (§7.2.1): the edge hash is direction
	// sensitive, so (u,v) and (v,u) may land on different partitions. The
	// thesis calls it "Asymmetric Random" when ported to PowerLyra (§8.1)
	// and finds it strictly worse than Random (§8.2.2).
	asymRandom = &hashStrategy{"AsymRandom", func(numParts int, seed uint64) (Assigner, error) {
		return asymAssigner{parts: uint64(numParts), seed: seed}, nil
	}}
	// oneD is GraphX's 1D edge partitioning (§7.2.2): every edge is hashed
	// by its source vertex, colocating each vertex's out-edges.
	oneD = &hashStrategy{"1D", func(numParts int, seed uint64) (Assigner, error) {
		return oneDAssigner{parts: uint64(numParts), seed: seed}, nil
	}}
	// oneDTarget is the thesis's new variant (§8.2.3): hash edges by their
	// *target* vertex, colocating in-edges — the gather direction of natural
	// applications — so PowerLyra's hybrid engine can gather locally. Its
	// assigner also hints each vertex's master onto the partition holding
	// its in-edges, mirroring how the engine-integrated variant colocates
	// gather-edges with masters.
	oneDTarget = &hashStrategy{"1D-Target", func(numParts int, seed uint64) (Assigner, error) {
		return oneDTargetAssigner{parts: uint64(numParts), seed: seed}, nil
	}}
	// twoD is GraphX's 2D edge partitioning (§7.2.3): partitions are
	// arranged in a √P×√P matrix, the column picked by the source hash and
	// the row by the destination hash, bounding the replication factor by
	// 2√P−1. When P is not a perfect square the next larger square is used
	// and assignments are mapped back down modulo P, as GraphX does.
	twoD = &hashStrategy{"2D", func(numParts int, seed uint64) (Assigner, error) {
		return twoDAssigner{parts: uint64(numParts), side: uint64(ceilSqrt(numParts)), seed: seed}, nil
	}}
)

func newRandomAssigner(numParts int, seed uint64) (Assigner, error) {
	return randomAssigner{parts: uint64(numParts), seed: seed}, nil
}

type randomAssigner struct {
	parts uint64
	seed  uint64
}

func (a randomAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.EdgeCanonical(a.seed, e.Src, e.Dst) % a.parts)
}

type asymAssigner struct {
	parts uint64
	seed  uint64
}

func (a asymAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.EdgeDirected(a.seed, e.Src, e.Dst) % a.parts)
}

type oneDAssigner struct {
	parts uint64
	seed  uint64
}

func (a oneDAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.Vertex(a.seed, e.Src) % a.parts)
}

type oneDTargetAssigner struct {
	parts uint64
	seed  uint64
}

func (a oneDTargetAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.Vertex(a.seed, e.Dst) % a.parts)
}

// MasterHint implements MasterHinter.
func (a oneDTargetAssigner) MasterHint(v graph.VertexID) int32 {
	return int32(hashing.Vertex(a.seed, v) % a.parts)
}

type twoDAssigner struct {
	parts uint64
	side  uint64
	seed  uint64
}

func (a twoDAssigner) Assign(e graph.Edge) int32 {
	col := hashing.Vertex(a.seed, e.Src) % a.side
	row := hashing.Vertex(a.seed^0x2d, e.Dst) % a.side
	// col·side + row < side² ≤ 2·parts (side is ⌈√parts⌉), so one
	// subtract is the modulo.
	c := col*a.side + row
	if c >= a.parts {
		c -= a.parts
	}
	return int32(c)
}

// ceilSqrt returns the smallest s with s*s >= n.
func ceilSqrt(n int) int {
	s := 0
	for s*s < n {
		s++
	}
	return s
}
