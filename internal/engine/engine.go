// Package engine defines the vertex-program abstraction of the three
// simulated systems — PowerGraph's GAS engine, PowerLyra's hybrid engine and
// GraphX's Pregel loop — and implements the one synchronous superstep loop
// (Execute) all three run on.
//
// The loop runs the *real* algorithm — vertex values are computed exactly,
// applications run to convergence — while every byte of master/mirror
// synchronization, every edge scanned, and every barrier is charged to the
// simulated cluster (internal/cluster) according to the placement decisions
// of a partition.Assignment. Performance metrics are therefore deterministic
// functions of partitioning quality, which is exactly the relationship the
// paper measures.
//
// A system is a cost policy, not a loop, and a policy is data: a Charges value
// of four per-edge or per-step numbers, a work multiplier, the degree at or
// below which a vertex is narrow and three per-vertex Transfers. Run builds
// PowerGraph's (every mirror gathers and is synced, §5.1.2) and PowerLyra's
// (low-degree vertices touch only the partitions holding their edges, §6.1);
// internal/engine/graphx builds GraphX's (ch. 7). Nothing of a policy runs at
// visit time — Execute evaluates it against the placement — so it can change
// what a placement costs and never what the program computes.
package engine

import (
	"errors"
	"fmt"

	"graphpart/internal/cluster"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// Direction selects which incident edges a stage of a vertex program reads
// or writes (§3.1, §6.1).
type Direction int

// Directions.
const (
	DirNone Direction = iota
	DirIn
	DirOut
	DirBoth = DirIn | DirOut
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirNone:
		return "none"
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirBoth:
		return "both"
	}
	return "?"
}

func (d Direction) in() bool  { return d&DirIn != 0 }
func (d Direction) out() bool { return d&DirOut != 0 }

// Program is a GAS vertex program (§3.1) over vertex values V and gather
// accumulators A. Implementations must be pure: the engines own all state.
type Program[V, A any] interface {
	// Name returns the application name as used in the paper's figures.
	Name() string
	// GatherDir selects the edges gathered over.
	GatherDir() Direction
	// ScatterDir selects the edges along which changed vertices activate
	// neighbors.
	ScatterDir() Direction
	// Init returns v's initial value.
	Init(g *graph.Graph, v graph.VertexID) V
	// InitiallyActive reports whether v is active in the first superstep.
	InitiallyActive(g *graph.Graph, v graph.VertexID) bool
	// Gather folds one adjacency list of v into acc and returns it: nbrs is
	// v's in-neighbor list (dir is DirIn: the edges are (u, v)) or its
	// out-neighbor list (DirOut: (v, u)), and vals holds every vertex's
	// current value. Each neighbor contributes once per edge, in list
	// order. acc is the zero A until hasAcc, which says it already holds
	// v's other list: the first contribution ever initialises it, and every
	// other one is combined with the program's sum, which must be
	// commutative and associative (§3.1). An empty list returns acc as it
	// came. acc is the program's to modify in place.
	Gather(g *graph.Graph, v graph.VertexID, dir Direction, nbrs []graph.VertexID, vals []V, acc A, hasAcc bool) A
	// Apply computes v's new value from the aggregated accumulator.
	// hasAcc is false when v had no gather-direction edges. changed
	// triggers scatter activation.
	Apply(g *graph.Graph, v graph.VertexID, old V, acc A, hasAcc bool) (newVal V, changed bool)
	// AccBytes is the wire size of one accumulator message.
	AccBytes() int
	// ValueBytes is the wire size of one vertex-value sync message.
	ValueBytes() int
}

// Reactivator is an optional Program extension for bulk-iterative
// applications: vertices for which StayActive returns true remain in the
// frontier every superstep, and the run converges when a superstep produces
// no changed vertices (Pregel's halt-voting). K-core implements this — each
// peeling round re-examines every remaining vertex (§3.3.3).
type Reactivator[V any] interface {
	StayActive(g *graph.Graph, v graph.VertexID, val V) bool
}

// Natural reports whether p is a "natural application" in PowerLyra's sense
// (§6.1): it gathers along exactly one direction and scatters along the
// other.
func Natural[V, A any](p Program[V, A]) bool {
	g, s := p.GatherDir(), p.ScatterDir()
	return (g == DirIn && s == DirOut) || (g == DirOut && s == DirIn)
}

// Mode selects the engine semantics.
type Mode int

// Engine modes.
const (
	// ModePowerGraph: every mirror participates in gather and receives the
	// applied value — the sync engine of §5.1.2.
	ModePowerGraph Mode = iota
	// ModePowerLyra: differentiated processing (§6.1). Low-degree vertices
	// gather only from partitions actually holding gather-direction edges
	// (zero network when the partitioner colocated them with the master)
	// and push values only to partitions holding scatter-direction edges.
	// High-degree vertices behave as in PowerGraph.
	ModePowerLyra
)

// Options tunes one engine run.
type Options struct {
	// MaxSupersteps caps execution; ≤0 means run to convergence.
	MaxSupersteps int
	// FixedIterations, when >0, forces every vertex active for exactly
	// this many supersteps (the paper's "PageRank(10)" configuration). It
	// is a cap of its own: Run rejects it together with MaxSupersteps.
	FixedIterations int
	// Workers bounds the goroutines executing each superstep phase. ≤0
	// means GOMAXPROCS; 1 runs every shard inline on the calling
	// goroutine. The shard decomposition is worker-count independent (see
	// Execute), so Stats and Values are byte-identical for every value.
	Workers int
}

// Stats are the §4.3 metrics of one compute phase.
type Stats struct {
	App        string
	Strategy   string
	Mode       Mode
	Supersteps int
	Converged  bool

	// ComputeSeconds is the simulated computation time (always excluding
	// ingress, as the paper defines it).
	ComputeSeconds float64
	// AvgNetInGB is mean per-machine inbound traffic (Figs 5.3/6.1/8.3).
	AvgNetInGB float64
	// PeakMemGB is max per-machine peak memory (Figs 5.5/6.2), covering
	// the compute phase only; callers combine with ingress memory.
	PeakMemGB float64
	// CPUUtil is each machine's busy fraction (Fig 8.4).
	CPUUtil []float64
	// EdgesProcessed counts gather+scatter edge visits (work measure).
	EdgesProcessed int64
	// SuperstepSeconds records the simulated duration of each superstep.
	SuperstepSeconds []float64
}

// MaxParts is the most partitions an assignment run on the engines may have:
// Execute keeps each edge's partition in one byte.
const MaxParts = 256

// ErrTooManyParts is what Run and graphx.Run return for an assignment of more
// than MaxParts partitions.
var ErrTooManyParts = fmt.Errorf("the engines run at most %d partitions", MaxParts)

// Outcome carries the computed vertex values along with run statistics.
type Outcome[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes prog under PowerGraph's or PowerLyra's cost policy: it
// validates, builds the mode's Charges, hands the program to Execute — whose
// worker-count independence makes Stats and Values byte-identical for every
// opts.Workers — and reads the Stats off the finished run.
func Run[V, A any](mode Mode, prog Program[V, A], a *partition.Assignment, cfg cluster.Config, model cluster.CostModel, opts Options) (*Outcome[V], error) {
	if err := errors.Join(cfg.Validate(), model.Validate()); err != nil {
		return nil, err
	}
	if cfg.NumParts() != a.NumParts {
		return nil, fmt.Errorf("engine: assignment has %d partitions but cluster has %d", a.NumParts, cfg.NumParts())
	}
	if a.NumParts > MaxParts {
		return nil, fmt.Errorf("engine: assignment has %d partitions: %w", a.NumParts, ErrTooManyParts)
	}
	if opts.MaxSupersteps > 0 && opts.FixedIterations > 0 {
		return nil, fmt.Errorf("engine: MaxSupersteps %d and FixedIterations %d are both set; FixedIterations is its own cap",
			opts.MaxSupersteps, opts.FixedIterations)
	}
	accB := float64(prog.AccBytes() + model.MsgOverheadBytes)
	valB := float64(prog.ValueBytes() + model.MsgOverheadBytes)

	// PowerGraph: partial accumulators flow from every mirror to the master,
	// which syncs all mirrors of an active vertex every superstep (§5.1.2).
	charges := Charges{
		GatherEdgeNs:  model.GatherEdgeNs,
		ScatterEdgeNs: model.ScatterEdgeNs,
		SignalBytes:   float64(model.SignalBytes),
		WorkMult:      1,
		NarrowDegree:  -1,
		Gathered:      Transfer{Bytes: accB, Narrow: prog.GatherDir()},
		Applied:       Transfer{Bytes: valB, MirrorNs: model.ApplyVertexNs, Narrow: DirBoth},
	}
	// PowerLyra's differentiated processing (§6.1) makes the low-degree
	// vertices narrow: they gather only from partitions actually holding
	// gather-direction edges, and GraphLab/Pregel-style their value travels
	// as a message — only when it changed, and only to the partitions that
	// need it for a one-way scatter (scattering both ways, or not at all,
	// reaches every mirror): the hybrid engine's synchronization saving for
	// natural applications.
	if mode == ModePowerLyra {
		charges.NarrowDegree = partition.DefaultHybridThreshold
		charges.NarrowSyncOnChange = true
		if d := prog.ScatterDir(); d == DirIn || d == DirOut {
			charges.Applied.Narrow = d
		}
	}

	maxSteps := opts.MaxSupersteps
	if opts.FixedIterations > 0 {
		maxSteps = opts.FixedIterations
	}
	ex := Execute(prog, a, cfg, model, charges, maxSteps, opts.FixedIterations > 0, opts.Workers)

	staticMem, _ := cluster.ComputeMem(a, cfg, model)
	for m, static := range staticMem {
		ex.Run.SetPeakMem(m, static+ex.PeakDynBytes)
	}
	return &Outcome[V]{Values: ex.Values, Stats: Stats{
		App: prog.Name(), Strategy: a.Strategy, Mode: mode,
		Supersteps:       len(ex.StepSeconds),
		Converged:        ex.Converged,
		ComputeSeconds:   ex.Run.SimSeconds,
		AvgNetInGB:       ex.Run.AvgNetInGB(),
		PeakMemGB:        ex.Run.MaxPeakMemGB(),
		CPUUtil:          ex.Run.CPUUtilization(),
		EdgesProcessed:   ex.Edges,
		SuperstepSeconds: ex.StepSeconds,
	}}, nil
}
