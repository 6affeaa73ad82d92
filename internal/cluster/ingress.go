package cluster

import (
	"graphpart/internal/partition"
)

// IngressStats describes the ingress (load + partition) phase of a job: the
// phase the paper times in Figs 5.7, 6.4 and 8.2 and whose memory footprint
// explains Figs 6.2/6.3.
type IngressStats struct {
	Strategy string
	// Seconds is the simulated ingress time: loading the edge list in
	// parallel, running the assignment logic (once per pass), shuffling
	// edges to their partitions, and finalizing local graph structures.
	Seconds float64
	// PeakMemPerMachine is the peak per-machine memory (bytes) reached
	// during ingress.
	PeakMemPerMachine float64
	// Phases breaks Seconds down for the memory timeline of Fig 6.3.
	Phases []IngressPhase
}

// IngressPhase is one segment of the ingress timeline.
type IngressPhase struct {
	Name    string
	Seconds float64
	// MemPerMachine is the per-machine memory level (bytes) while this
	// phase runs.
	MemPerMachine float64
}

// Ingress computes the simulated ingress phase for an assignment produced
// by strategy s on cluster cfg.
//
// The model: each machine loads |E|/M edges from disk, runs the assignment
// function over them (hash-based: O(1)/edge; greedy: O(P)/edge), shuffles
// every edge whose partition lives on another machine, and finalizes its
// local structures at a cost proportional to local edges and local vertex
// replicas. Multi-pass strategies (Hybrid: 2, H-Ginger: 3) repeat the scan
// and reshuffle, and hold larger buffers — reproducing both their slower
// ingress (Fig 6.4) and their above-trend peak memory (Fig 6.2).
//
// Pass structure, heuristic pricing and loader counts all come from the
// strategy's capability interfaces via partition.ShapeOf — the model knows
// no strategy names.
func Ingress(a *partition.Assignment, s partition.Strategy, cfg Config, model CostModel) IngressStats {
	m := float64(cfg.Machines)
	edges := float64(a.G.NumEdges())
	verts := float64(a.G.NumVertices())
	perLoader := edges / m

	// Phase 1: parallel load from disk.
	loadSec := perLoader * float64(model.EdgeWireBytes) / model.DiskBytesPerSec

	// Phase 2: assignment. Hash strategies pay HashAssignNs per edge; the
	// greedy family pays HeuristicAssignNs per candidate partition
	// (candidate set ≈ all partitions) per edge.
	shape := partition.ShapeOf(s, a.NumParts)
	passes := shape.Passes
	hp := shape.HeuristicPasses
	assignPerEdge := model.HashAssignNs * float64(passes)
	if hp > 0 {
		assignPerEdge += model.HeuristicAssignNs * float64(a.NumParts) * float64(hp)
	}
	assignSec := perLoader * assignPerEdge / 1e9

	// Phase 3: shuffle. An edge assigned to partition p by a loader on a
	// different machine crosses the network. With loaders striping the
	// edge list, a (M−1)/M fraction of each machine's inbound edges are
	// remote; inbound per machine is bounded by its own partition load.
	var maxInEdges float64
	inEdges := make([]float64, cfg.Machines)
	for p, c := range a.EdgeCount {
		inEdges[cfg.MachineOf(p)] += float64(c)
	}
	for _, c := range inEdges {
		if c > maxInEdges {
			maxInEdges = c
		}
	}
	remoteFrac := (m - 1) / m
	shuffleSec := maxInEdges * remoteFrac * float64(model.EdgeWireBytes) / model.BandwidthBytesPerSec
	// Multi-pass strategies reshuffle reassigned edges each extra pass; we
	// charge a partially-overlapped repeat of the shuffle per extra pass.
	shuffleSec *= 1 + model.IngressPassOverlap*float64(passes-1)

	// Phase 4: finalize local structures. This is where partition quality
	// pays off even during ingress: fewer replicas → cheaper finalization
	// (why Grid's ingress beats Random's despite both being hashes, §5.4.4).
	var maxFinalize float64
	replicas := make([]float64, cfg.Machines)
	for p := 0; p < a.NumParts; p++ {
		replicas[cfg.MachineOf(p)] += float64(a.ReplicasOnPart(p))
	}
	for mi := 0; mi < cfg.Machines; mi++ {
		f := (inEdges[mi]*model.FinalizeEdgeNs + replicas[mi]*model.FinalizeReplicaNs) / 1e9
		if f > maxFinalize {
			maxFinalize = f
		}
	}

	// Memory during ingress: raw edge buffers of the busiest machine's
	// inbound edges (larger for multi-pass strategies, which hold the
	// previous pass's assignment too), plus
	// per-vertex strategy state (degree counters, Ginger scores).
	bufFactor := model.IngressBufferFactor
	stateBytes := 0.0
	if shape.Streaming && shape.Loaders > 0 {
		// Greedy streaming strategies hold per-loader state: the placement
		// bit-matrix A(v), one bit per vertex per partition. Each machine
		// hosts ⌈loaders/M⌉ independent loader states during ingress
		// (§5.2.2). Degree counters stay governed by DegreeCounterBytes in
		// the multi-pass branch below; HDRF's partial degrees are small
		// next to A(v) and are not charged separately.
		perLoaderState := verts * float64(a.NumParts) / 8
		loadersPerMachine := float64((shape.Loaders + cfg.Machines - 1) / cfg.Machines)
		stateBytes += loadersPerMachine * perLoaderState
	}
	if passes >= 2 {
		bufFactor += 0.6 * float64(passes-1)
		stateBytes += verts * float64(model.DegreeCounterBytes)
	}
	if passes >= 3 {
		stateBytes += verts * float64(model.GingerStateBytes)
	}
	peakMem := maxInEdges*float64(model.EdgeMemBytes)*bufFactor +
		replicasMax(replicas)*float64(model.ReplicaBytes) + stateBytes

	phases := []IngressPhase{
		{Name: "load", Seconds: loadSec, MemPerMachine: maxInEdges * float64(model.EdgeMemBytes)},
		{Name: "assign+shuffle", Seconds: assignSec + shuffleSec, MemPerMachine: peakMem},
		{Name: "finalize", Seconds: maxFinalize, MemPerMachine: peakMem},
	}
	total := 0.0
	for _, ph := range phases {
		total += ph.Seconds
	}
	return IngressStats{
		Strategy:          a.Strategy,
		Seconds:           total,
		PeakMemPerMachine: peakMem,
		Phases:            phases,
	}
}

func replicasMax(rs []float64) float64 {
	var max float64
	for _, r := range rs {
		if r > max {
			max = r
		}
	}
	return max
}

// ComputeMem returns the steady-state compute-phase memory of every machine
// — its partitions' replicas plus their edges — and the cluster-wide total.
// It is the one statement of that formula: the engines' peak-memory
// accounting, GraphX's executor-fit model and fig9.4's sweep all read it.
// Both results accumulate partition by partition in ascending order.
func ComputeMem(a *partition.Assignment, cfg Config, model CostModel) (perMachine []float64, total float64) {
	perMachine = make([]float64, cfg.Machines)
	for p := 0; p < a.NumParts; p++ {
		w := float64(a.ReplicasOnPart(p))*float64(model.ReplicaBytes) +
			float64(a.EdgeCount[p])*float64(model.EdgeMemBytes)
		perMachine[cfg.MachineOf(p)] += w
		total += w
	}
	return perMachine, total
}
