package partition

import (
	"math/bits"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
	"graphpart/internal/metrics"
	"graphpart/internal/par"
)

// cutTable is the one vertex-cut bookkeeping core: which partitions hold an
// image of each vertex, which image is master, and the quality summary
// (edges and images per partition) every paper metric is read from. The
// three holders embed it by value — Assignment adds the in/out matrices and
// the edge list, StreamSummary adds nothing, PartitionState adds the
// endpoint ref counts and live edges — so a metric exists once and reads
// the same for all of them.
type cutTable struct {
	numParts int
	seed     uint64
	replicas *bitMatrix // partitions holding any edge of v
	masters  []int32    // -1 for isolated vertices
	q        *metrics.Quality
}

func newCutTable(rows, numParts int, seed uint64) cutTable {
	return cutTable{
		numParts: numParts,
		seed:     seed,
		replicas: newBitMatrix(rows, numParts),
		q:        metrics.NewQuality(numParts),
	}
}

// Replicas returns the number of partitions holding an image of v (master
// included). Zero for isolated vertices and ids beyond the vertex space.
func (t *cutTable) Replicas(v graph.VertexID) int {
	if int(v) >= len(t.masters) {
		return 0
	}
	return t.replicas.count(int(v))
}

// Master returns the master partition of v, or -1 if v is isolated or
// beyond the vertex space.
func (t *cutTable) Master(v graph.VertexID) int {
	if int(v) >= len(t.masters) {
		return -1
	}
	return int(t.masters[v])
}

// ReplicationFactor returns the average number of images per vertex over
// all non-isolated vertices — the paper's headline partition-quality metric
// (§5.1.1).
func (t *cutTable) ReplicationFactor() float64 { return t.q.ReplicationFactor() }

// TotalReplicas returns the total number of vertex images across all
// partitions.
func (t *cutTable) TotalReplicas() int64 { return t.q.TotalReplicas() }

// EdgeBalance returns max(edges per partition) / mean(edges per partition),
// ≥1; 1.0 is perfectly balanced. The load-balance metric the strategies'
// heuristics optimize.
func (t *cutTable) EdgeBalance() float64 { return t.q.EdgeBalance() }

// ReplicasOnPart returns the number of vertex images partition p holds
// (maintained by the quality summary; O(1)).
func (t *cutTable) ReplicasOnPart(p int) int64 { return t.q.ReplicasOnPart(p) }

// deriveMasters is the bulk master pass of every one-shot path (the
// materialized driver and the stream builder's Finish): from a filled
// replica matrix over n vertices it allocates the masters, picks each one
// and folds the image counts into the quality summary, sharded by vertex
// range over workers ≥ 1. Each worker accumulates into a private summary
// and the merge is a sum, so the result is independent of the worker count.
// hint may be nil; the workers call it concurrently.
//
// Image counts are kept in byte lanes rather than visited bit by bit: byte k
// of lanes[8*wi+j] counts the rows holding column 64*wi+8*k+j, so a row word
// costs eight shift-mask-adds whatever its bits. A byte holds 255, so the
// lanes fold into the summary every 255 placed rows.
func (t *cutTable) deriveMasters(n, workers int, hint func(graph.VertexID) int32) {
	t.masters = make([]int32, n)
	locals := make([]*metrics.Quality, workers)
	words, rows, masters := t.replicas.words, t.replicas.bits, t.masters
	par.Do(workers, workers, func(w, _ int) {
		local := metrics.NewQuality(t.numParts)
		lanes := make([]uint64, 8*words)
		fold := func() {
			for i, l := range lanes {
				for k := 0; k < 8; k++ {
					// Columns past numParts are never set, so their bytes stay 0.
					if c := int64(l >> (8 * k) & 0xff); c != 0 {
						local.AddReplicas(i/8*64+8*k+i%8, c)
					}
				}
				lanes[i] = 0
			}
		}
		pending := 0
		lo, hi := par.Range(n, workers, w)
		for v := lo; v < hi; v++ {
			row := rows[v*words : (v+1)*words]
			reps := 0
			for wi, x := range row {
				reps += bits.OnesCount64(x)
				// Unrolled by hand: a loop over the lanes measured ~20% slower.
				const ones = 0x0101010101010101
				l := (*[8]uint64)(lanes[8*wi:])
				l[0] += x & ones
				l[1] += x >> 1 & ones
				l[2] += x >> 2 & ones
				l[3] += x >> 3 & ones
				l[4] += x >> 4 & ones
				l[5] += x >> 5 & ones
				l[6] += x >> 6 & ones
				l[7] += x >> 7 & ones
			}
			if reps == 0 {
				masters[v] = -1
				continue
			}
			local.VertexPlaced()
			if pending++; pending == 255 {
				fold()
				pending = 0
			}
			h := int32(-1)
			if hint != nil {
				h = hint(graph.VertexID(v))
			}
			masters[v] = chooseMaster(row, v, reps, h, t.seed)
		}
		fold()
		locals[w] = local
	})
	for _, local := range locals {
		t.q.Merge(local)
	}
}

// recomputeMaster re-derives one vertex's master after its replica set
// changed, with the same hint-then-hash rule as the bulk pass. O(numParts).
func (t *cutTable) recomputeMaster(v int, hinter MasterHinter) {
	reps := t.replicas.count(v)
	if reps == 0 {
		t.masters[v] = -1
		return
	}
	hint := int32(-1)
	if hinter != nil {
		hint = hinter.MasterHint(graph.VertexID(v))
	}
	t.masters[v] = chooseMaster(t.replicas.row(v), v, reps, hint, t.seed)
}

// chooseMaster picks the master of vertex v, whose replica row holds reps
// set bits. PowerGraph picks one replica at random (§5.1.1); we pick
// deterministically by hashing the vertex over its ascending replica list.
// A hint overrides the hash when the hinted partition actually holds a
// replica (Hybrid's low-degree masters, 1D-Target).
func chooseMaster(row []uint64, v, reps int, hint int32, seed uint64) int32 {
	if uint(hint) < uint(64*len(row)) && row[hint/64]&(1<<(hint%64)) != 0 {
		return hint
	}
	pick := int(hashing.Vertex(seed^0xa57e, graph.VertexID(v)) % uint64(reps))
	for wi, x := range row {
		if c := bits.OnesCount64(x); pick >= c {
			pick -= c
			continue
		}
		return int32(64*wi + selectBit(x, pick))
	}
	return -1 // unreachable: reps counts row's bits
}

// selectBit returns the position of x's (k+1)-th lowest set bit, for k <
// popcount(x). It is broadword select: per-byte prefix popcounts find the
// byte, and the same count over that byte's bits, spread one per byte,
// finds the bit. No branch depends on x or k: a loop clearing the lowest
// bit k times mispredicts on the hashed k, and made the master pass ~1.6×
// slower.
func selectBit(x uint64, k int) int {
	const l8, h8 = 0x0101010101010101, 0x8080808080808080
	// byteLE counts the bytes of p (each ≤ 64) that are ≤ the current k.
	byteLE := func(p uint64) int { return bits.OnesCount64((uint64(k)*l8 | h8 - p) & h8) }
	s := x - x>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f * l8 // byte i: set bits in bytes 0..i
	b := 8 * byteLE(s)
	k -= int(s << 8 >> b & 0xff)
	y := x >> b & 0xff * l8 & 0x8040201008040201 // bit i of the byte, alone in byte i
	y = (y + 0x7f7f7f7f7f7f7f7f) >> 7 & l8 * l8  // byte i: set bits in positions 0..i
	return b + byteLE(y)
}
