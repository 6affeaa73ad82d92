package main

import (
	"fmt"
	"slices"

	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// newStreamIngest is bounded-memory ingress: a large sparse graph is
// streamed from a v2 file through a sharded stream builder, and no edge
// list or engine ever exists. The streamed summary must equal the one a
// materialized, sequentially built Grid assignment of the same graph
// gives.
func newStreamIngest() *batch {
	var (
		path string
		seed uint64
		sb   *partition.ShardedStreamBuilder
		sum  *partition.StreamSummary
		want struct {
			q         quality
			edgeCount []int64
			masters   []int32
		}
	)
	const strategy = "Grid"
	strat := partition.MustNew(strategy, partition.Options{})
	b := &batch{name: "stream-ingest"}
	b.prepare = func(c *config, dir string) error {
		seed = c.seed
		src := genRoadWide(c.seed, c.sz)
		var err error
		if path, err = roadV2.save(src, dir); err != nil {
			return err
		}
		b.edges, b.fileBytes = int64(src.NumEdges()), fileSize(path)
		a, err := partition.Partition(src, strat, partsGAS, seed)
		if err != nil {
			return err
		}
		var problems []string
		if want.q, problems = checkQuality(strategy, a, nil); problems != nil {
			return fmt.Errorf("reference assignment: %s", problems[0])
		}
		want.edgeCount, want.masters = slices.Clone(a.EdgeCount), slices.Clone(a.Masters)
		if c.sabotage {
			want.edgeCount[0]++
		}
		return nil
	}
	scaling := stage{w1: "partition.assign_w1_s", speedup: "partition.speedup"}
	newBuilder, decode, finish := scaling, scaling, scaling
	newBuilder.span, newBuilder.arg = "partition.new_builder", strategy
	newBuilder.run = func(_ *tracer, workers int) (err error) {
		sb, err = partition.NewShardedStreamBuilder(strat, partsGAS, workers, seed)
		return err
	}
	decode.span, decode.holds = "graph.stream_decode", "partition" // the stream leaves nothing behind, the builder it fed does
	decode.run = func(tr *tracer, _ int) error {
		_, _, err := graph.StreamFile(path, 0, func(offset int64, edges []graph.Edge) error {
			return tr.do("partition.feed", strategy, func() error {
				return sb.Feed(partition.EdgeBatch{Offset: offset, Edges: edges})
			})
		})
		return err
	}
	finish.span, finish.arg = "partition.finish", strategy
	finish.run = func(*tracer, int) (err error) {
		sum, err = sb.Finish()
		sb = nil // the summary is the product; the builder's buffers are not
		return err
	}
	b.stages = []stage{newBuilder, decode, finish}
	b.verify = func() (map[string]float64, []string) {
		var problems []string
		got := quality{sum.ReplicationFactor(), sum.EdgeBalance()}
		if !sameQuality(got, want.q) || sum.NumEdges != b.edges ||
			!slices.Equal(sum.EdgeCount, want.edgeCount) || !slices.Equal(sum.Masters, want.masters) {
			problems = append(problems, fmt.Sprintf("streamed summary (RF %v, balance %v, %d edges) differs from the materialized assignment (RF %v, balance %v, %d edges)",
				got.RF, got.Balance, sum.NumEdges, want.q.RF, want.q.Balance, b.edges))
		}
		return map[string]float64{"partition.rf": got.RF, "partition.edge_balance": got.Balance}, problems
	}
	b.keep = func() any { return sum }
	b.drop = func() { sb, sum = nil, nil }
	return b
}

// sweepStrategies are the paper's strategies constructible at 16
// partitions: all thirteen but PDS, which needs p²+p+1.
var sweepStrategies = []string{
	"Random", "CanonicalRandom", "AsymRandom", "Oblivious", "HDRF", "Grid",
	"ResilientGrid", "Hybrid", "H-Ginger", "1D", "1D-Target", "2D",
}

// postPaperStrategies are timed once, in the traced run only: Multilevel
// alone would be two thirds of a pass and mask every paper strategy.
var postPaperStrategies = map[string]string{
	"HEP": "partition.hep_s", "JaBeJaSwap": "partition.jabeja_s", "Multilevel": "partition.multilevel_s",
}

// newPartitionSweep partitions one resident graph with every strategy:
// the partition layer does all of the work, load and engines none.
func newPartitionSweep() *batch {
	var (
		seed uint64
		g    *graph.Graph
		got  = make([]*partition.Assignment, len(sweepStrategies))
		want = make([]struct {
			q         quality
			placement uint64
		}, len(sweepStrategies))
	)
	b := &batch{name: "partition-sweep"}
	b.prepare = func(c *config, dir string) error {
		seed = c.seed
		path, err := socialV1.save(genSocial(c.seed, c.sz), dir)
		if err != nil {
			return err
		}
		if g, err = graph.LoadFile(path); err != nil {
			return err
		}
		g.EnsureCSR()
		b.edges, b.fileBytes = int64(g.NumEdges()), fileSize(path)
		// The references come from the sequential driver, which shares the
		// placement functions but not the parallel ingress under test; each
		// is recounted here, once, so that a pass need only compare.
		for i, name := range sweepStrategies {
			a, err := partition.Partition(g, partition.MustNew(name, partition.Options{}), partsGAS, seed)
			if err != nil {
				return err
			}
			var problems []string
			if want[i].q, problems = checkQuality(name, a, nil); problems != nil {
				return fmt.Errorf("reference assignment: %s", problems[0])
			}
			want[i].placement = placementSum(a.EdgeParts)
		}
		if c.sabotage {
			want[0].placement++
		}
		return nil
	}
	for i, name := range sweepStrategies {
		strat := partition.MustNew(name, partition.Options{})
		b.stages = append(b.stages, stage{
			span: "partition.assign", arg: name, w1: "partition.assign_w1_s", speedup: "partition.speedup",
			run: func(_ *tracer, workers int) (err error) {
				got[i], err = partition.ParallelPartition(g, strat, partsGAS, seed, workers)
				return err
			},
		})
	}
	b.verify = func() (map[string]float64, []string) {
		var problems []string
		var rf, balance float64
		for i, name := range sweepStrategies {
			q := quality{got[i].ReplicationFactor(), got[i].EdgeBalance()}
			if !sameQuality(q, want[i].q) || placementSum(got[i].EdgeParts) != want[i].placement {
				problems = append(problems, fmt.Sprintf("%s: parallel placement (RF %v, balance %v) differs from the sequential one (RF %v, balance %v)",
					name, q.RF, q.Balance, want[i].q.RF, want[i].q.Balance))
			}
			rf += q.RF / float64(len(sweepStrategies))
			balance += q.Balance / float64(len(sweepStrategies))
		}
		return map[string]float64{"partition.rf": rf, "partition.edge_balance": balance}, problems
	}
	b.more = func(_ *config, tr *tracer, lm layerMetrics) error {
		for name, metric := range postPaperStrategies {
			strat := partition.MustNew(name, partition.Options{})
			id := tr.begin("partition.assign", name)
			a, err := partition.ParallelPartition(g, strat, partsGAS, seed, b.workers)
			tr.end(id)
			if err != nil {
				return err
			}
			if _, problems := checkQuality(name, a, nil); problems != nil {
				return fmt.Errorf("%s", problems[0])
			}
			lm[metric] = tr.spans[id].dur().Seconds()
		}
		return placeSeconds(g, seed, lm)
	}
	b.keep = func() any { return []any{g, got} }
	b.drop = func() { clear(got) }
	return b
}
