package partition

import (
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
	replicas *bitMatrix // partitions holding any edge (or pinned image) of v
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

// Quality returns the aggregate quality summary (shared; do not modify).
func (t *cutTable) Quality() *metrics.Quality { return t.q }

// deriveMasters is the bulk master pass of the one-shot paths: from a
// filled replica matrix over n vertices it allocates the masters, picks
// each one and folds the image counts into the quality summary, sharded by
// vertex range over workers ≥ 1. Each worker accumulates into a private
// summary and the merge is a sum, so the result is independent of the worker
// count. hint may be nil; workers calling it concurrently must be safe.
func (t *cutTable) deriveMasters(n, workers int, hint func(graph.VertexID) int32) {
	t.masters = make([]int32, n)
	locals := make([]*metrics.Quality, workers)
	par.Do(workers, workers, func(w, _ int) {
		local := metrics.NewQuality(t.numParts)
		addReplica := local.AddReplica
		lo, hi := par.Range(n, workers, w)
		for v := lo; v < hi; v++ {
			reps := t.replicas.count(v)
			if reps == 0 {
				t.masters[v] = -1
				continue
			}
			local.VertexPlaced()
			t.replicas.forEach(v, addReplica)
			h := int32(-1)
			if hint != nil {
				h = hint(graph.VertexID(v))
			}
			t.masters[v] = chooseMaster(t.replicas, v, reps, h, t.numParts, t.seed)
		}
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
	t.masters[v] = chooseMaster(t.replicas, v, reps, hint, t.numParts, t.seed)
}

// chooseMaster picks vertex v's master. PowerGraph picks one replica at
// random (§5.1.1); we pick deterministically by hashing the vertex over its
// replica list. A hint overrides the hash when the hinted partition
// actually holds a replica (Hybrid's low-degree masters, 1D-Target).
func chooseMaster(replicas *bitMatrix, v, reps int, hint int32, numParts int, seed uint64) int32 {
	if hint >= 0 && int(hint) < numParts && replicas.has(v, int(hint)) {
		return hint
	}
	pick := int(hashing.Vertex(seed^0xa57e, graph.VertexID(v)) % uint64(reps))
	idx := 0
	chosen := int32(-1)
	replicas.forEach(v, func(col int) {
		if idx == pick {
			chosen = int32(col)
		}
		idx++
	})
	return chosen
}
