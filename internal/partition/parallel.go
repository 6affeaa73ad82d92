package partition

import (
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/par"
)

// ParallelPartition is the one materialized ingress driver: it partitions g
// with s using up to `workers` concurrent workers (≤0 means GOMAXPROCS; 1
// runs everything inline on the calling goroutine, which is what Partition
// does) and materializes the Assignment in three phases: validate and count
// by edge range, set the out- and in-edge bits as one shard per direction,
// and derive replicas by vertex range. Dispatch is by capability:
//
//   - StatelessStrategy: the edge list shards across workers, each with its
//     own Assigner; master hints are produced per vertex shard.
//   - StreamingStrategy: each independent loader streams its own contiguous
//     block of the edge list, concurrently — the paper's multi-loader
//     ingress (§5.2.2).
//   - MultiPassStrategy: one sequential strategy pass, but the Assignment
//     is still built in parallel.
//
// A strategy with none of the three is refused with ErrNoIngressCapability.
// Parallelism changes wall-clock, never placement: the result is identical
// at every worker count. The strategy's own Partition method runs at most
// once per call (and not at all for stateless/streaming strategies).
func ParallelPartition(g *graph.Graph, s Strategy, numParts int, seed uint64, workers int) (*Assignment, error) {
	workers = par.Workers(workers)
	if numParts < 1 {
		return nil, fmt.Errorf("partition: numParts must be ≥1, got %d", numParts)
	}
	var res *Result
	var err error
	switch impl := s.(type) {
	case StatelessStrategy:
		res, err = assignStateless(g, impl, numParts, seed, workers)
	case StreamingStrategy:
		res, err = assignStreaming(g, impl, numParts, seed, workers)
	case MultiPassStrategy:
		res, err = s.Partition(g, numParts, seed)
	default:
		err = ErrNoIngressCapability
	}
	if err != nil {
		return nil, fmt.Errorf("partition: strategy %s: %w", s.Name(), err)
	}
	return newAssignment(g, s, numParts, seed, res, workers)
}

// assignStateless shards the edge list across workers, each assigning with
// its own Assigner (pure per-edge function, so shard boundaries cannot
// change placement). When the assigner hints masters, the hint vector is
// filled per vertex shard. Every StatelessStrategy's Partition method is
// this function at one worker.
func assignStateless(g *graph.Graph, s StatelessStrategy, numParts int, seed uint64, workers int) (*Result, error) {
	// One up-front assigner validates parameters and probes capabilities.
	probe, err := s.NewAssigner(numParts, seed)
	if err != nil {
		return nil, err
	}
	m := g.NumEdges()
	n := g.NumVertices()
	parts := make([]int32, m)
	var hint []int32
	if _, ok := probe.(MasterHinter); ok {
		hint = make([]int32, n)
	}
	errs := make([]error, workers)
	par.Do(workers, workers, func(w, _ int) {
		asg := probe
		if w > 0 {
			// Assigners may carry scratch state; one per goroutine.
			if asg, errs[w] = s.NewAssigner(numParts, seed); errs[w] != nil {
				return
			}
		}
		lo, hi := par.Range(m, workers, w)
		for i := lo; i < hi; i++ {
			parts[i] = asg.Assign(g.Edges[i])
		}
		if hint != nil {
			h := asg.(MasterHinter)
			lo, hi := par.Range(n, workers, w)
			for v := lo; v < hi; v++ {
				hint[v] = h.MasterHint(graph.VertexID(v))
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{EdgeParts: parts, MasterHint: hint}, nil
}

// assignStreaming runs a StreamingStrategy's independent loaders, each over
// its own contiguous edge block and private state. Workers take loaders one
// after another, so at most `workers` loader states are live at once; blocks
// and per-loader seeds do not depend on the worker count, so neither does
// the placement. A probe loader over no vertices is built first, so refused
// parameters are reported whatever the edge count. Every StreamingStrategy's
// Partition method is this function at one worker.
func assignStreaming(g *graph.Graph, s StreamingStrategy, numParts int, seed uint64, workers int) (*Result, error) {
	m := g.NumEdges()
	nl := max(s.Loaders(numParts), 1)
	if _, err := s.NewLoader(0, numParts, 0, seed); err != nil {
		return nil, err
	}
	parts := make([]int32, m)
	par.Do(workers, nl, func(id, _ int) {
		lo, hi := loaderBlock(m, nl, id)
		if lo >= hi {
			return
		}
		// The probe accepted these parameters, so no loader refuses them.
		ld, _ := s.NewLoader(g.NumVertices(), numParts, id, seed)
		for i := lo; i < hi; i++ {
			parts[i] = ld.Assign(g.Edges[i])
		}
	})
	return &Result{EdgeParts: parts}, nil
}
