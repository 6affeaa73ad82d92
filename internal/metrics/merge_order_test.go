package metrics

import (
	"math/rand"
	"testing"
)

// TestQualityMergeShardOrder documents the sharded-merge contract the
// parallel builders rely on (and graphlint's detrange fixture enforces at
// the call sites): per-shard summaries merged in ascending shard order
// equal the sequential replay exactly — and because every Quality field is
// an integer sum, ANY merge order equals it too. The contract callers keep
// is nonetheless ascending shard order (see partition.buildParallel and
// the sharded stream builder), so that if a non-commutative field is ever
// added, the accumulation order is already pinned and this test is what
// fails first.
func TestQualityMergeShardOrder(t *testing.T) {
	const numParts, shards = 7, 5
	r := rand.New(rand.NewSource(42))

	// One sequential summary and per-shard summaries fed the same stream.
	seq := NewQuality(numParts)
	locals := make([]*Quality, shards)
	for i := range locals {
		locals[i] = NewQuality(numParts)
	}
	for i := 0; i < 10_000; i++ {
		p := r.Intn(numParts)
		shard := r.Intn(shards)
		seq.AddEdge(p)
		locals[shard].AddEdge(p)
		if i%3 == 0 {
			seq.VertexPlaced()
			locals[shard].VertexPlaced()
		}
		if i%2 == 0 {
			seq.AddReplica(p)
			locals[shard].AddReplica(p)
		}
	}

	equal := func(a, b *Quality) bool {
		if a.TotalReplicas() != b.TotalReplicas() || a.placed != b.placed || a.NumEdges() != b.NumEdges() {
			return false
		}
		for p := 0; p < numParts; p++ {
			if a.EdgesOn(p) != b.EdgesOn(p) || a.ReplicasOnPart(p) != b.ReplicasOnPart(p) {
				return false
			}
		}
		return true
	}

	// Ascending shard order — the order every caller uses.
	asc := NewQuality(numParts)
	for i := 0; i < shards; i++ {
		asc.Merge(locals[i])
	}
	if !equal(asc, seq) {
		t.Fatalf("ascending-order merge diverges from the sequential replay: RF %v vs %v, balance %v vs %v",
			asc.ReplicationFactor(), seq.ReplicationFactor(), asc.EdgeBalance(), seq.EdgeBalance())
	}

	// Commutativity: the property that makes the contract cheap to keep.
	// Merge in several shuffled orders; every result must equal ascending.
	for trial := 0; trial < 10; trial++ {
		order := r.Perm(shards)
		shuffled := NewQuality(numParts)
		for _, i := range order {
			shuffled.Merge(locals[i])
		}
		if !equal(shuffled, asc) {
			t.Fatalf("merge order %v diverges from ascending order: Quality gained a non-commutative field without updating the shard-order contract", order)
		}
	}
}
