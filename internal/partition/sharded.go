package partition

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphpart/internal/graph"
	"graphpart/internal/par"
)

// ShardedStreamBuilder is the one memory-bounded stream ingress: it consumes
// an edge stream batch by batch for a stateless strategy and accumulates the
// vertex-cut bookkeeping — per-partition edge counts and the replica
// bit-matrix — without ever materializing the edge list. Each worker
// goroutine owns a private streamShard (its own assigner, counters and
// matrix — no shared mutable state, no locks on the hot path); Feed copies
// each batch into a pooled buffer and dispatches it to whichever worker is
// free. Because the strategy is stateless and every per-edge update commutes
// (counter addition, bit-set union), the merged result is identical at
// every worker count and for every interleaving of batches across workers;
// one worker is simply one goroutine draining the same queue.
//
// Feed is intended for a single producer (the file reader); the concurrency
// lives behind it. Memory is O(workers · |V|·P/8) bits plus the in-flight
// batch copies until Finish, which keeps only the summary's |V|·P bits.
type ShardedStreamBuilder struct {
	strategy string
	shards   []*streamShard
	jobs     chan shardJob
	wg       sync.WaitGroup
	failed   atomic.Pointer[error] // the first assignment error; workers stop feeding once set
	pool     sync.Pool
	done     bool
	sum      *StreamSummary
}

type shardJob struct {
	offset int64
	buf    *[]graph.Edge
}

// streamShard is one worker's private ingress state: the cutTable core
// (masters stay empty until the merged shard derives them at Finish) plus
// the worker's own assigner, the vertex-space high-water mark and the
// batch's per-partition edge counts.
type streamShard struct {
	cutTable
	asg    Assigner
	n      int     // vertices seen so far (max id + 1)
	counts []int64 // this batch's edges per partition, folded into q after it
}

func newStreamShard(numParts int, seed uint64, asg Assigner) *streamShard {
	return &streamShard{
		cutTable: newCutTable(0, numParts, seed),
		asg:      asg,
		// A cache line of spare capacity: the shards' counters are
		// allocated one after another, and without it two workers could
		// write one line on every edge.
		counts: make([]int64, numParts, numParts+8),
	}
}

// feed assigns and accounts one batch of edges, growing the replica matrix
// first to the batch's vertex space. Once the matrix covers the vertex range
// it allocates nothing. The matrix grows and the edge counts reach the
// shard's Quality once per batch, so the per-edge writes are the replica
// bits and the shard's own counters: none lands on a cache line another
// worker reads.
func (sh *streamShard) feed(strategy string, batch EdgeBatch) error {
	n, capRows := sh.n, sh.replicas.capRows()
	for _, e := range batch.Edges {
		if v := int(max(e.Src, e.Dst)) + 1; v > n {
			n = v
			if v > capRows { // grown at the same ids as edge by edge: the same allocations
				sh.replicas.ensureRows(v)
				capRows = sh.replicas.capRows()
			}
		}
	}
	if n > sh.n {
		sh.n = n
		sh.replicas.ensureRows(n)
	}
	counts := sh.counts
	var err error
	for i, e := range batch.Edges {
		p := sh.asg.Assign(e)
		if p < 0 || int(p) >= len(counts) {
			err = fmt.Errorf("partition: strategy %s placed edge %d on partition %d (numParts=%d)",
				strategy, batch.Offset+int64(i), p, sh.numParts)
			break
		}
		counts[p]++
		sh.replicas.set(int(e.Src), int(p))
		sh.replicas.set(int(e.Dst), int(p))
	}
	for p, c := range counts {
		if c != 0 {
			sh.q.AddEdges(p, c)
			counts[p] = 0
		}
	}
	return err
}

// merge folds the other shards' accumulated state into sh. Every piece of
// shard state is a commutative monoid under merge (counter sums, bit-set
// unions, max vertex id), which is what makes sharded ingress exact: masters
// and image counts are derived only at Finish, from the merged state. The
// counters and vertex spaces fold on the calling goroutine in O(shards·P);
// the replica rows fold by vertex range on workers goroutines.
func (sh *streamShard) merge(others []*streamShard, workers int) {
	for _, o := range others {
		sh.n = max(sh.n, o.n)
		sh.q.Merge(o.q)
	}
	sh.replicas.ensureRows(sh.n)
	par.Do(workers, workers, func(w, _ int) {
		lo, hi := par.Range(sh.n, workers, w)
		for _, o := range others {
			sh.replicas.orRows(o.replicas, lo, hi)
		}
	})
}

// NewShardedStreamBuilder prepares a stream ingress with the given worker
// count (≤0 means GOMAXPROCS). Only stateless strategies can stream this
// way: batches interleave arbitrarily across workers, which is sound only
// when per-edge placement is order-independent. Strategies carrying
// per-loader state (StreamingStrategy) or requiring multiple passes
// (MultiPassStrategy) are rejected with an error naming the capability.
func NewShardedStreamBuilder(strat Strategy, numParts, workers int, seed uint64) (*ShardedStreamBuilder, error) {
	s, ok := strat.(StatelessStrategy)
	if !ok {
		switch impl := strat.(type) {
		case StreamingStrategy:
			return nil, fmt.Errorf("partition: strategy %s is a StreamingStrategy (ordered per-loader state); stream ingress requires a StatelessStrategy", strat.Name())
		case MultiPassStrategy:
			_, _, why := impl.MultiPass()
			return nil, fmt.Errorf("partition: strategy %s is a MultiPassStrategy (%s); stream ingress requires a StatelessStrategy", strat.Name(), why)
		default:
			return nil, fmt.Errorf("partition: strategy %s does not implement StatelessStrategy; stream ingress requires one", strat.Name())
		}
	}
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	workers = par.Workers(workers)
	sb := &ShardedStreamBuilder{
		strategy: s.Name(),
		shards:   make([]*streamShard, workers),
		jobs:     make(chan shardJob, 2*workers),
	}
	sb.pool.New = func() any {
		s := make([]graph.Edge, 0, graph.DefaultBatchSize)
		return &s
	}
	for i := range sb.shards {
		asg, err := s.NewAssigner(numParts, seed)
		if err != nil {
			return nil, fmt.Errorf("partition: strategy %s: %w", s.Name(), err)
		}
		sb.shards[i] = newStreamShard(numParts, seed, asg)
	}
	for i := range sb.shards {
		sb.wg.Add(1)
		go func(i int) {
			defer sb.wg.Done()
			for job := range sb.jobs {
				if sb.failed.Load() == nil {
					if err := sb.shards[i].feed(sb.strategy, EdgeBatch{Offset: job.offset, Edges: *job.buf}); err != nil {
						first := err // escapes only on this path: the feed loop stays allocation-free
						sb.failed.CompareAndSwap(nil, &first)
					}
				}
				*job.buf = (*job.buf)[:0]
				sb.pool.Put(job.buf)
			}
		}(i)
	}
	return sb, nil
}

// Feed copies one batch into a pooled buffer and hands it to a worker. The
// caller's slice is not retained; in steady state the copy reuses pooled
// memory, so the batch→Feed→release cycle allocates nothing.
func (sb *ShardedStreamBuilder) Feed(batch EdgeBatch) error {
	if sb.done {
		return fmt.Errorf("%w (sharded)", ErrFeedAfterFinish)
	}
	if errp := sb.failed.Load(); errp != nil {
		return *errp
	}
	bufp := sb.pool.Get().(*[]graph.Edge)
	*bufp = append((*bufp)[:0], batch.Edges...)
	sb.jobs <- shardJob{offset: batch.Offset, buf: bufp}
	return nil
}

// Finish drains the workers, merges their private state and derives masters
// and the quality metrics from it, both by vertex range on the builder's
// workers. The summary matches what Partition would have computed for the
// same edges: identical EdgeCount, Masters and ReplicationFactor. Finish is
// idempotent; after the first call the builder accepts no more edges and
// holds nothing but the summary: the other shards and the batch buffers are
// released, on the error path too. An assignment error from any worker
// surfaces here (and on the Feed that follows it).
func (sb *ShardedStreamBuilder) Finish() (*StreamSummary, error) {
	if !sb.done {
		sb.done = true
		close(sb.jobs)
		sb.wg.Wait()
		if sb.failed.Load() == nil {
			sb.sum = sb.summarize()
		}
		sb.shards, sb.pool = nil, sync.Pool{}
	}
	if errp := sb.failed.Load(); errp != nil {
		return nil, *errp
	}
	return sb.sum, nil
}

// summarize merges every shard into the one whose replica matrix has the
// least capacity that holds the whole vertex space, and derives its masters.
// The merge is sums and unions, so the summary is the same whichever shard
// takes it; the others are released, so the one kept sets the memory the
// summary retains, and the tightest grows no new matrix.
func (sb *ShardedStreamBuilder) summarize() *StreamSummary {
	n := 0
	for _, sh := range sb.shards {
		n = max(n, sh.n)
	}
	r := -1
	for i, sh := range sb.shards {
		if c := sh.replicas.capRows(); c >= n && (r < 0 || c < sb.shards[r].replicas.capRows()) {
			r = i
		}
	}
	sb.shards[0], sb.shards[r] = sb.shards[r], sb.shards[0]
	root, workers := sb.shards[0], len(sb.shards)
	root.merge(sb.shards[1:], workers)
	var hint func(graph.VertexID) int32
	if h, ok := root.asg.(MasterHinter); ok {
		hint = h.MasterHint
	}
	root.deriveMasters(root.n, workers, hint)
	return &StreamSummary{
		Strategy:    sb.strategy,
		NumParts:    root.numParts,
		NumVertices: root.n,
		NumEdges:    root.q.NumEdges(),
		EdgeCount:   root.q.EdgeCounts(),
		Masters:     root.masters,
		cutTable:    root.cutTable,
	}
}
