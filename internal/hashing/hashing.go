// Package hashing provides the deterministic 64-bit mixing functions used by
// the hash-based partitioners and the synthetic graph generators.
//
// All randomness in this repository flows through splitmix64 so that every
// experiment is reproducible bit-for-bit across runs and platforms.
package hashing

// Mix64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Combine mixes two 64-bit values into one, order-sensitively.
func Combine(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b+0x517cc1b727220a95))
}

// Vertex hashes a vertex id with a seed.
func Vertex(seed uint64, v uint32) uint64 {
	return Mix64(seed ^ (uint64(v) + 0x9e3779b97f4a7c15))
}

// EdgeDirected hashes a directed edge: (u,v) and (v,u) hash differently.
// This is GraphX's "Random" (asymmetric) edge hash (§7.2.1).
func EdgeDirected(seed uint64, src, dst uint32) uint64 {
	return Combine(Vertex(seed, src), uint64(dst)+1)
}

// EdgeCanonical hashes an undirected edge: (u,v) and (v,u) hash identically.
// This is PowerGraph's Random (§5.2.1) and GraphX's Canonical Random
// (§7.2.1).
func EdgeCanonical(seed uint64, src, dst uint32) uint64 {
	return EdgeDirected(seed, min(src, dst), max(src, dst))
}

// RNG is a splitmix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0; use NewRNG to pick a seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Skip advances the generator past n values: it leaves r exactly as n
// calls of Uint64 would, without computing them.
func (r *RNG) Skip(n uint64) { r.state += n * 0x9e3779b97f4a7c15 }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
