package metrics

// Quality incrementally maintains the paper's partition-quality summary:
// per-partition edge counts, per-partition vertex-image counts, the total
// image count, and the number of placed (non-isolated) vertices — everything
// replication factor (§5.1.1) and edge balance are computed from.
//
// Every update is an O(1) delta, so a long-lived partition state can keep
// the summary current under edge churn in O(batch) per batch. The one-shot
// paths (a materialized Assignment, a streamed ingress) are the "replay from
// empty" special case: they build a Quality by replaying the same AddEdge /
// AddReplica / VertexPlaced primitives once over the frozen edge set.
//
// Quality never inspects the graph: callers own the transition logic (when
// a vertex gains or loses its image on a partition) and report only the
// transitions.
type Quality struct {
	numParts      int
	edgeCount     []int64
	partReplicas  []int64
	totalReplicas int64
	placed        int64
	numEdges      int64
}

// NewQuality prepares an empty summary over numParts partitions.
func NewQuality(numParts int) *Quality {
	return &Quality{
		numParts:     numParts,
		edgeCount:    make([]int64, numParts),
		partReplicas: make([]int64, numParts),
	}
}

// AddEdge records one edge placed on partition p.
func (q *Quality) AddEdge(p int) {
	q.edgeCount[p]++
	q.numEdges++
}

// AddEdges records n edges placed on partition p — the bulk form used when
// per-worker counts are folded in after a sharded scan.
func (q *Quality) AddEdges(p int, n int64) {
	q.edgeCount[p] += n
	q.numEdges += n
}

// RemoveEdge records one edge removed from partition p.
func (q *Quality) RemoveEdge(p int) {
	q.edgeCount[p]--
	q.numEdges--
}

// MoveEdge records one edge migrated from partition p to partition to —
// numEdges is unchanged.
func (q *Quality) MoveEdge(from, to int) {
	q.edgeCount[from]--
	q.edgeCount[to]++
}

// AddReplica records a vertex gaining an image on partition p (it had none
// there before).
func (q *Quality) AddReplica(p int) {
	q.partReplicas[p]++
	q.totalReplicas++
}

// AddReplicas records n vertices gaining an image on partition p — the bulk
// form of AddReplica, used when a sharded scan folds its per-partition image
// counts in.
func (q *Quality) AddReplicas(p int, n int64) {
	q.partReplicas[p] += n
	q.totalReplicas += n
}

// RemoveReplica records a vertex losing its image on partition p.
func (q *Quality) RemoveReplica(p int) {
	q.partReplicas[p]--
	q.totalReplicas--
}

// VertexPlaced records a vertex going from zero replicas to at least one.
func (q *Quality) VertexPlaced() { q.placed++ }

// VertexDropped records a vertex going from at least one replica to zero.
func (q *Quality) VertexDropped() { q.placed-- }

// EdgeCounts returns the live per-partition edge counts. The slice is the
// accumulator's own backing store: it stays current as the summary evolves
// and must not be modified by callers.
func (q *Quality) EdgeCounts() []int64 { return q.edgeCount }

// EdgesOn returns the number of edges partition p holds.
func (q *Quality) EdgesOn(p int) int64 { return q.edgeCount[p] }

// ReplicasOnPart returns the number of vertex images partition p holds.
func (q *Quality) ReplicasOnPart(p int) int64 { return q.partReplicas[p] }

// TotalReplicas returns the total number of vertex images.
func (q *Quality) TotalReplicas() int64 { return q.totalReplicas }

// NumEdges returns the number of live edges.
func (q *Quality) NumEdges() int64 { return q.numEdges }

// ReplicationFactor returns the average images per placed vertex — the
// paper's headline partition-quality metric (§5.1.1). Zero when nothing is
// placed.
func (q *Quality) ReplicationFactor() float64 {
	if q.placed == 0 {
		return 0
	}
	return float64(q.totalReplicas) / float64(q.placed)
}

// EdgeBalance returns max(edges per partition) / mean(edges per partition),
// ≥1; 1.0 is perfectly balanced. 1 when there are no edges.
func (q *Quality) EdgeBalance() float64 {
	if q.numParts == 0 || q.numEdges == 0 {
		return 1
	}
	var max int64
	for _, c := range q.edgeCount {
		if c > max {
			max = c
		}
	}
	return float64(max) / (float64(q.numEdges) / float64(q.numParts))
}

// Merge folds another summary over the same partition count into q. Every
// field is a sum, so per-worker summaries merged in any order equal the
// sequential accumulation — what makes sharded ingress and sharded
// assignment materialization exact.
func (q *Quality) Merge(o *Quality) {
	for p := 0; p < q.numParts; p++ {
		q.edgeCount[p] += o.edgeCount[p]
		q.partReplicas[p] += o.partReplicas[p]
	}
	q.totalReplicas += o.totalReplicas
	q.placed += o.placed
	q.numEdges += o.numEdges
}

// Reset zeroes the summary in place, keeping the partition count.
func (q *Quality) Reset() {
	for p := range q.edgeCount {
		q.edgeCount[p] = 0
		q.partReplicas[p] = 0
	}
	q.totalReplicas, q.placed, q.numEdges = 0, 0, 0
}
