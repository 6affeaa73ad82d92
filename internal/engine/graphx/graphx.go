// Package graphx simulates GraphX's execution model (ch. 7) as a cost policy
// over engine.Execute, the superstep loop it shares with PowerGraph and
// PowerLyra: many edge partitions per machine, a per-iteration task-scheduling
// floor, RDD-scan edge work, the aggregateMessages shuffle and routing-table
// vertex-value shipping. What it adds around the loop is GraphX's own: a
// partitioning phase that is separate from ingress, and an executor memory
// model reproducing the three memory-pressure cases of Fig 9.4.
package graphx

import (
	"errors"
	"fmt"
	"math"

	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/partition"
)

// Config describes one GraphX job.
type Config struct {
	Cluster cluster.Config
	// ExecutorMemBytes is the per-executor (per-machine) memory budget —
	// the "executor-memory" parameter swept in Fig 9.4. 0 means ample
	// memory (no pressure).
	ExecutorMemBytes float64
	// Iterations caps the Pregel loop, as the paper's GraphX experiments
	// do (10 in ch. 7, 25 in ch. 9). ≤0 means run to convergence, as
	// engine.Options.MaxSupersteps does.
	Iterations int
	// Workers bounds the goroutines executing each iteration phase; ≤0
	// means GOMAXPROCS. Stats and Values are byte-identical for every
	// value (see engine.Execute).
	Workers int
}

// Stats describes a GraphX run. GraphX separates the partitioning phase
// from ingress and computation (§7.3), so partitioning time is reported on
// its own.
type Stats struct {
	App      string
	Strategy string

	// PartitionSeconds is the separate partitioning phase.
	PartitionSeconds float64
	// ComputeSeconds is the Pregel loop (excludes partitioning).
	ComputeSeconds float64
	// IterSeconds/CumulativeSeconds give per-iteration timing; cumulative
	// includes PartitionSeconds, matching the y-axis of Figs 9.1/9.2
	// ("total time taken at the end of each iteration").
	IterSeconds       []float64
	CumulativeSeconds []float64
	Iterations        int
	Converged         bool

	// Memory-pressure outcome (Fig 9.4).
	Failed      bool    // case 1: cannot fit on the whole cluster
	FitAttempts int     // case 2: redistribution attempts before fitting
	GCOverhead  float64 // multiplier ≥1 applied to compute work

	AvgNetInGB float64
	PeakMemGB  float64
	CPUUtil    []float64
}

// Outcome bundles values and stats.
type Outcome[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes prog under the GraphX model.
func Run[V, A any](prog engine.Program[V, A], a *partition.Assignment, cfg Config, model cluster.CostModel) (*Outcome[V], error) {
	cc := cfg.Cluster
	if err := errors.Join(cc.Validate(), model.Validate()); err != nil {
		return nil, err
	}
	if cc.NumParts() != a.NumParts {
		return nil, fmt.Errorf("graphx: assignment has %d partitions, cluster provides %d", a.NumParts, cc.NumParts())
	}
	if a.NumParts > engine.MaxParts {
		return nil, fmt.Errorf("graphx: assignment has %d partitions: %w", a.NumParts, engine.ErrTooManyParts)
	}
	machines := cc.Machines

	stats := Stats{App: prog.Name(), Strategy: a.Strategy}

	// ---- Memory model (Fig 9.4) ----
	// Working set per machine if partitions were spread evenly.
	spreadMem, totalMem := cluster.ComputeMem(a, cc, model)
	gcMult := 1.0
	if cfg.ExecutorMemBytes > 0 {
		avail := cfg.ExecutorMemBytes - model.ExecutorBase
		if avail <= 0 {
			avail = 1
		}
		// Case 1: the graph cannot fit on the entire cluster.
		if totalMem > avail*float64(machines) {
			stats.Failed = true
			return &Outcome[V]{Stats: stats}, nil
		}
		// Spark first tries to co-locate the graph on 2 executors, then
		// doubles the executor count after each out-of-memory failure
		// (§9.2.4). Count the failed attempts; each costs RedistributeSec.
		need := int(math.Ceil(totalMem / avail))
		if need < 2 {
			need = 2
		}
		tryExec := 2
		for tryExec < need && tryExec < machines {
			stats.FitAttempts++
			tryExec *= 2
		}
		// GC overhead grows as the per-machine working set approaches the
		// executor budget.
		pressure := totalMem / float64(machines) / avail
		if pressure > model.GCKnee {
			headroom := 1 - pressure
			if headroom < 0.02 {
				headroom = 0.02
			}
			gcMult = 1 + model.GCSlope*(pressure-model.GCKnee)/headroom
		}
	}
	stats.GCOverhead = gcMult

	// ---- Partitioning phase (separate from ingress, §7.3) ----
	stats.PartitionSeconds = partitionPhaseSeconds(a, cc, model)

	// ---- Pregel loop ----
	// engine.Execute runs the vertex program; what is GraphX's own is the
	// price list: a per-task floor, RDD-scan edge work inflated by GC, the
	// aggregateMessages shuffle and routing-table value shipping.
	accB := float64(prog.AccBytes() + model.MsgOverheadBytes)
	valB := float64(prog.ValueBytes() + model.MsgOverheadBytes)
	ex := engine.Execute(prog, a, cc, model, engine.Charges{
		// Spark schedules one task per partition every iteration, whether or
		// not it has active work — GraphX's constant per-iteration floor.
		StepFloorNs:  model.TaskOverheadNs,
		GatherEdgeNs: model.RDDEdgeNs,
		WorkMult:     gcMult,
		// aggregateMessages shuffle: every vertex is narrow — each edge
		// partition holding gather-direction edges of v sends one combined
		// message to v's vertex partition (master).
		NarrowDegree: math.MaxInt,
		Gathered:     engine.Transfer{Bytes: accB, Narrow: prog.GatherDir()},
		// Vertex-value shipping: changed vertices broadcast their new value
		// to every edge partition holding their edges (GraphX's routing
		// tables) — the replication-factor-proportional cost.
		Shipped: engine.Transfer{Bytes: valB, MirrorNs: model.ApplyVertexNs, Narrow: engine.DirBoth},
	}, cfg.Iterations, false, cfg.Workers)

	stats.IterSeconds = ex.StepSeconds
	stats.Iterations = len(ex.StepSeconds)
	stats.Converged = ex.Converged

	// Case-2 redistribution attempts delay the start of computation.
	redisSec := float64(stats.FitAttempts) * model.RedistributeSec
	stats.ComputeSeconds = ex.Run.SimSeconds + redisSec
	cum := stats.PartitionSeconds
	for _, d := range ex.StepSeconds {
		cum += d
		stats.CumulativeSeconds = append(stats.CumulativeSeconds, cum+redisSec)
	}
	stats.AvgNetInGB = ex.Run.AvgNetInGB()
	for m := 0; m < machines; m++ {
		ex.Run.SetPeakMem(m, spreadMem[m]*gcMultMemFactor(gcMult))
	}
	stats.PeakMemGB = ex.Run.MaxPeakMemGB()
	stats.CPUUtil = ex.Run.CPUUtilization()
	return &Outcome[V]{Values: ex.Values, Stats: stats}, nil
}

// gcMultMemFactor nudges peak memory up under GC pressure (fragmentation,
// survivor copies).
func gcMultMemFactor(gcMult float64) float64 { return 1 + 0.1*(gcMult-1) }

// partitionPhaseSeconds models GraphX's standalone partitioning phase: a
// partitionBy over the edge RDD (assignment + shuffle), without the
// edge-list load (that is ingress) — which is why all of GraphX's
// hash-based strategies partition at similar speed (§7.4) while the ported
// greedy strategies are slower (ch. 9).
func partitionPhaseSeconds(a *partition.Assignment, cfg cluster.Config, model cluster.CostModel) float64 {
	edges := float64(a.G.NumEdges())
	perMachine := edges / float64(cfg.Machines)
	assignNs := model.HashAssignNs * float64(a.Shape.Passes)
	if a.Shape.Passes >= 3 || a.Shape.HeuristicPasses > 0 {
		assignNs += model.HeuristicAssignNs * float64(a.NumParts)
	}
	assignSec := perMachine * assignNs / 1e9
	shuffleSec := perMachine * float64(model.EdgeWireBytes) / model.BandwidthBytesPerSec
	// Rebuilding the routing tables costs per replica, but GraphX routing
	// tables are plain id lists — far cheaper than PowerGraph's mirror
	// structures — so partitioning speed is dominated by the shuffle and
	// looks similar across the hash strategies (§7.4).
	const routingTableFactor = 0.1
	var reps float64
	for p := 0; p < a.NumParts; p++ {
		reps += float64(a.ReplicasOnPart(p))
	}
	finalizeSec := reps / float64(cfg.Machines) * model.FinalizeReplicaNs * routingTableFactor / 1e9
	return assignSec + shuffleSec + finalizeSec
}
