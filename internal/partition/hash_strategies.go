package partition

import (
	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

func init() {
	Register("Random", func(Options) Strategy { return Random{} })
	Register("CanonicalRandom", func(Options) Strategy { return CanonicalRandom{} })
	Register("AsymRandom", func(Options) Strategy { return AsymRandom{} })
	Register("1D", func(Options) Strategy { return OneD{} })
	Register("1D-Target", func(Options) Strategy { return OneDTarget{} })
	Register("2D", func(Options) Strategy { return TwoD{} })
}

// Random is PowerGraph's Random hash partitioning (§5.2.1): the hash
// ignores edge direction, so (u,v) and (v,u) land on the same partition.
// GraphX calls the same scheme "Canonical Random" (§7.2.1).
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "Random" }

// NewAssigner implements StatelessStrategy.
func (Random) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return randomAssigner{parts: uint64(numParts), seed: seed}, nil
}

// Partition implements Strategy.
func (s Random) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
}

type randomAssigner struct {
	parts uint64
	seed  uint64
}

func (a randomAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.EdgeCanonical(a.seed, e.Src, e.Dst) % a.parts)
}

// CanonicalRandom is GraphX's name for Random; it exists so GraphX
// experiment output uses the paper's GraphX terminology.
type CanonicalRandom struct{ Random }

// Name implements Strategy.
func (CanonicalRandom) Name() string { return "CanonicalRandom" }

// AsymRandom is GraphX's "Random" (§7.2.1): the edge hash is direction
// sensitive, so (u,v) and (v,u) may land on different partitions. The
// thesis calls it "Asymmetric Random" when ported to PowerLyra (§8.1) and
// finds it strictly worse than Random (§8.2.2).
type AsymRandom struct{}

// Name implements Strategy.
func (AsymRandom) Name() string { return "AsymRandom" }

// NewAssigner implements StatelessStrategy.
func (AsymRandom) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return asymAssigner{parts: uint64(numParts), seed: seed}, nil
}

// Partition implements Strategy.
func (s AsymRandom) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
}

type asymAssigner struct {
	parts uint64
	seed  uint64
}

func (a asymAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.EdgeDirected(a.seed, e.Src, e.Dst) % a.parts)
}

// OneD is GraphX's 1D edge partitioning (§7.2.2): every edge is hashed by
// its source vertex, colocating each vertex's out-edges.
type OneD struct{}

// Name implements Strategy.
func (OneD) Name() string { return "1D" }

// NewAssigner implements StatelessStrategy.
func (OneD) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return oneDAssigner{parts: uint64(numParts), seed: seed}, nil
}

// Partition implements Strategy.
func (s OneD) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
}

type oneDAssigner struct {
	parts uint64
	seed  uint64
}

func (a oneDAssigner) Assign(e graph.Edge) int32 {
	return int32(hashing.Vertex(a.seed, e.Src) % a.parts)
}

// OneDTarget is the thesis's new variant (§8.2.3): hash edges by their
// *target* vertex, colocating in-edges — the gather direction of natural
// applications — so PowerLyra's hybrid engine can gather locally. Its
// assigner also hints each vertex's master onto the partition holding its
// in-edges, mirroring how the engine-integrated variant colocates
// gather-edges with masters.
type OneDTarget struct{}

// Name implements Strategy.
func (OneDTarget) Name() string { return "1D-Target" }

// NewAssigner implements StatelessStrategy.
func (OneDTarget) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return oneDTargetAssigner{parts: uint64(numParts), seed: seed}, nil
}

// Partition implements Strategy.
func (s OneDTarget) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
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

// TwoD is GraphX's 2D edge partitioning (§7.2.3): partitions are arranged
// in a √P×√P matrix, the column picked by the source hash and the row by
// the destination hash, bounding the replication factor by 2√P−1. When P
// is not a perfect square the next larger square is used and assignments
// are mapped back down modulo P, as GraphX does.
type TwoD struct{}

// Name implements Strategy.
func (TwoD) Name() string { return "2D" }

// NewAssigner implements StatelessStrategy.
func (TwoD) NewAssigner(numParts int, seed uint64) (Assigner, error) {
	return twoDAssigner{parts: uint64(numParts), side: uint64(ceilSqrt(numParts)), seed: seed}, nil
}

// Partition implements Strategy.
func (s TwoD) Partition(g *graph.Graph, numParts int, seed uint64) (*Result, error) {
	return assignStateless(g, s, numParts, seed, 1)
}

type twoDAssigner struct {
	parts uint64
	side  uint64
	seed  uint64
}

func (a twoDAssigner) Assign(e graph.Edge) int32 {
	col := hashing.Vertex(a.seed, e.Src) % a.side
	row := hashing.Vertex(a.seed^0x2d, e.Dst) % a.side
	return int32((col*a.side + row) % a.parts)
}

// ceilSqrt returns the smallest s with s*s >= n.
func ceilSqrt(n int) int {
	s := 0
	for s*s < n {
		s++
	}
	return s
}
