// Command partition applies a partitioning strategy to a graph file (text
// edge list or binary .csrg, sniffed automatically) or a named registered
// dataset, and reports the paper's quality metrics: replication factor, edge
// balance, per-partition loads, and simulated ingress time.
//
// With -stream and a stateless (hash-family) strategy, the input file is
// consumed in batches and never materialized: memory stays O(|V|·P/8) bits
// per -workers worker plus the in-flight batches, no matter how large the
// edge list is. Streaming accepts both formats; the binary one skips text
// parsing entirely. Other strategies are refused with their capability named.
//
// With -churn N, the edge list is replayed as N deterministic add/delete
// windows through a long-lived mutable partition state instead of one-shot
// ingress; -rebalance sets the edge-balance threshold above which edges
// migrate off overloaded partitions.
//
// Usage:
//
//	partition -input graph.txt -strategy HDRF -parts 16
//	partition -input graph.csrg -strategy HDRF -parts 16
//	partition -input huge.csrg -strategy Grid -parts 25 -stream
//	partition -dataset uk-web -strategy Grid -parts 25 -verbose
//	partition -dataset uk-web -strategy HDRF -parts 16 -churn 6 -rebalance 1.2
//	partition -strategies            # list strategies + capability class
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"graphpart/internal/cluster"
	"graphpart/internal/datasets"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

func main() {
	log.SetFlags(0)
	var (
		input     = flag.String("input", "", "graph file: text edge list or binary .csrg (format sniffed)")
		dataset   = flag.String("dataset", "", "built-in dataset name instead of -input")
		scale     = flag.Int("scale", 1, "dataset scale factor (with -dataset)")
		strategy  = flag.String("strategy", "HDRF", "partitioning strategy")
		parts     = flag.Int("parts", 9, "number of partitions")
		machines  = flag.Int("machines", 0, "cluster machines for the ingress model (default: parts)")
		seed      = flag.Uint64("seed", 1, "hash seed")
		memBudget = flag.Float64("mem-budget", 0, "HEP in-memory edge budget as a fraction of |E| (0 = strategy default)")
		workers   = flag.Int("workers", 0, "ingress workers, materialized and -stream alike (0 = GOMAXPROCS; never changes the result)")
		stream    = flag.Bool("stream", false, "stream -input in batches without materializing the edge list (stateless strategies only)")
		churn     = flag.Int("churn", 0, "replay the graph as N add/delete windows through a mutable partition state instead of one-shot ingress")
		churnDel  = flag.Float64("churn-del", 0.2, "per-window deletion fraction of that window's additions (with -churn)")
		rebalance = flag.Float64("rebalance", 0, "edge-balance threshold: migrate edges whenever max/mean drifts above it (with -churn; 0 = off)")
		verbose   = flag.Bool("verbose", false, "print per-partition loads")
		list      = flag.Bool("strategies", false, "list available strategies with their ingress capability class and exit")
		jsonOut   = flag.String("json", "", "also write the quality metrics as typed JSON cells (benchrunner's Cell schema) to this file ('-' for stdout)")
	)
	flag.Parse()

	if *list {
		listStrategies(os.Stdout, *parts)
		return
	}

	if math.IsNaN(*memBudget) {
		log.Fatalf("partition: -mem-budget %g: the budget must be a number", *memBudget)
	}
	s, err := partition.New(*strategy, partition.Options{MemBudget: *memBudget})
	if err != nil {
		log.Fatal(err)
	}

	churnOpt := churnOptions{
		Parts:     *parts,
		Seed:      *seed,
		Windows:   *churn,
		DelFrac:   *churnDel,
		Rebalance: *rebalance,
		Workers:   *workers,
		Verbose:   *verbose,
	}
	if err := churnOpt.check(*stream); err != nil {
		log.Fatal(err)
	}
	// -input and -dataset are two sources for one graph, so neither wins;
	// -stream reads only a file.
	switch {
	case *input != "" && *dataset != "":
		log.Fatal("partition: -input and -dataset are mutually exclusive; give one")
	case *input == "" && (*stream || *dataset == ""):
		log.Fatal("partition: need -input FILE (or, without -stream, -dataset NAME; see -h)")
	}

	if *stream {
		if err := runStream(humanWriter(*jsonOut), s, *input, *parts, *seed, *workers, *verbose, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	cc, err := clusterFor(*parts, *machines)
	if err != nil {
		log.Fatal(err)
	}

	var g *graph.Graph
	name := *input
	if *dataset != "" {
		name = *dataset
		g, err = datasets.Load(*dataset, *scale)
	} else {
		g, err = graph.LoadFile(*input)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *churn > 0 {
		if err := runChurn(os.Stdout, g, s, churnOpt); err != nil {
			log.Fatal(err)
		}
		return
	}

	a, err := partition.ParallelPartition(g, s, *parts, *seed, *workers)
	if err != nil {
		log.Fatal(err)
	}

	ing := cluster.Ingress(a, s, cc, cluster.DefaultModel())

	// With -json -, stdout carries the JSON document alone; the
	// human-readable block moves to stderr rather than disappearing.
	hw := humanWriter(*jsonOut)
	fmt.Fprintf(hw, "graph:               %v (%s)\n", g, graph.Classify(g).Class)
	printMetrics(hw, s, *parts, a, a.EdgeCount, *verbose,
		fmt.Sprintf("ingress (simulated): %.4fs on %d machines", ing.Seconds, cc.Machines))

	if *jsonOut != "" {
		cells := qualityCells(name, s.Name(), *parts, a)
		cells = append(cells, report.Cell{Dims: cellDims(name, s.Name(), *parts),
			Metric: "ingress-seconds", Value: ing.Seconds, Unit: "s"})
		if err := writeCells(*jsonOut, cells); err != nil {
			log.Fatal(err)
		}
	}
}

// clusterFor is the cluster the ingress model prices: `machines` machines (0
// means one per partition) hosting exactly `parts` partitions. A machine
// count that does not divide the partition count is refused — rounding
// PartsPerMachine up would price a cluster the assignment does not fit.
func clusterFor(parts, machines int) (cluster.Config, error) {
	if machines == 0 {
		machines = parts
	}
	if machines < 1 || parts%machines != 0 {
		return cluster.Config{}, fmt.Errorf("partition: -machines %d cannot host -parts %d: machines × partitions-per-machine must equal the partition count", machines, parts)
	}
	return cluster.Config{Machines: machines, PartsPerMachine: parts / machines}, nil
}

// runStream runs the memory-bounded batch ingress: the edge list is read
// once, fed to the stream builder's workers and never held in memory. The
// builder rejects strategies that cannot stream, naming their capability.
func runStream(out io.Writer, s partition.Strategy, input string, parts int, seed uint64, workers int, verbose bool, jsonOut string) error {
	b, err := partition.NewShardedStreamBuilder(s, parts, workers, seed)
	if err != nil {
		return err
	}
	_, _, streamErr := graph.StreamFile(input, graph.DefaultBatchSize, func(offset int64, edges []graph.Edge) error {
		return b.Feed(partition.EdgeBatch{Offset: offset, Edges: edges})
	})
	// Finish even after a failed read: it is what stops the workers.
	sum, err := b.Finish()
	if streamErr != nil {
		return streamErr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph:               %s{|V|=%d |E|=%d} (streamed)\n", input, sum.NumVertices, sum.NumEdges)
	printMetrics(out, s, parts, sum, sum.EdgeCount, verbose, "")
	if jsonOut != "" {
		return writeCells(jsonOut, qualityCells(input, s.Name(), parts, sum))
	}
	return nil
}

// churnOptions configures a -churn replay.
type churnOptions struct {
	Parts     int
	Seed      uint64
	Windows   int
	DelFrac   float64
	Rebalance float64 // edge-balance threshold, 0 = off
	Workers   int
	Verbose   bool
}

// check refuses, naming the flag and its value, a churn flag that could not
// take effect: a negative window count, a replay combined with -stream, a
// rebalance threshold that is neither 0 (off) nor above 1, or -rebalance
// without -churn.
func (opt churnOptions) check(stream bool) error {
	switch {
	case opt.Windows < 0:
		return fmt.Errorf("partition: -churn %d: the window count cannot be negative", opt.Windows)
	case opt.Windows > 0 && stream:
		return fmt.Errorf("partition: -churn %d cannot run with -stream: a churn replay needs the materialized edge list", opt.Windows)
	case opt.Windows == 0 && opt.Rebalance != 0:
		return fmt.Errorf("partition: -rebalance %g needs -churn", opt.Rebalance)
	case opt.Windows > 0 && !(opt.DelFrac >= 0 && opt.DelFrac < 1): // refuses NaN too
		return fmt.Errorf("partition: -churn-del %g: the deletion fraction must be in [0,1)", opt.DelFrac)
	case opt.Rebalance != 0 && !(opt.Rebalance > 1 && !math.IsInf(opt.Rebalance, 1)):
		return fmt.Errorf("partition: -rebalance %g: the edge-balance threshold must be finite and above 1 (0 = off)", opt.Rebalance)
	}
	return nil
}

// runChurn replays the graph's edge list as a deterministic add/delete
// trace through a long-lived PartitionState, printing per-window quality
// and the final summary — the incremental counterpart of the one-shot path
// below.
func runChurn(out io.Writer, g *graph.Graph, s partition.Strategy, opt churnOptions) error {
	st, err := partition.NewPartitionState(s, opt.Parts, opt.Seed, opt.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph:               %v (churn: %d windows, del-frac %.2f)\n", g, opt.Windows, opt.DelFrac)
	moved := 0
	_, err = gen.ChurnTrace(g.Edges, gen.ChurnConfig{Windows: opt.Windows, DelFrac: opt.DelFrac, Seed: opt.Seed},
		func(w gen.ChurnWindow) error {
			stats, err := st.ApplyBatch(w.Adds, w.Dels)
			if err != nil {
				return err
			}
			line := fmt.Sprintf("window %d:            +%d -%d | edges=%d rf=%.4f balance=%.4f",
				w.Index, stats.Added, stats.Deleted, st.NumEdges(), st.ReplicationFactor(), st.EdgeBalance())
			if stats.Rebuilt {
				line += " (repartitioned)"
			}
			if st.NeedsRebalance(opt.Rebalance) {
				n := st.Rebalance(opt.Rebalance)
				moved += n
				line += fmt.Sprintf(" rebalanced(moved=%d balance=%.4f)", n, st.EdgeBalance())
			}
			fmt.Fprintln(out, line)
			return nil
		})
	if err != nil {
		return err
	}
	if moved > 0 {
		fmt.Fprintf(out, "migrated:            %d edges\n", moved)
	}
	printMetrics(out, s, opt.Parts, st, st.EdgeCount(), opt.Verbose, "")
	return nil
}

// cellDims are the dimensions every cmd/partition cell carries.
func cellDims(dataset, strategy string, parts int) report.Dims {
	return report.Dims{Dataset: dataset, Strategy: strategy, Parts: parts}
}

// qualityCells emits the paper's partition-quality metrics in the same
// typed Cell schema benchrunner reports use, so single-run outputs diff
// and aggregate alongside full experiment sweeps.
func qualityCells(dataset, strategy string, parts int, sum partitionSummary) []report.Cell {
	d := cellDims(dataset, strategy, parts)
	return []report.Cell{
		{Dims: d, Metric: "replication-factor", Value: sum.ReplicationFactor(), Unit: "ratio"},
		{Dims: d, Metric: "total-replicas", Value: float64(sum.TotalReplicas()), Unit: "replicas"},
		{Dims: d, Metric: "edge-balance", Value: sum.EdgeBalance(), Unit: "max/mean"},
	}
}

// writeCells writes the cells as indented JSON to path ('-' = stdout).
func writeCells(path string, cells []report.Cell) error {
	return report.WriteFile(path, os.Stdout, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cells)
	})
}

// partitionSummary is the metric surface shared by the materialized
// Assignment and the streamed StreamSummary.
type partitionSummary interface {
	ReplicationFactor() float64
	TotalReplicas() int64
	EdgeBalance() float64
	ReplicasOnPart(p int) int64
}

// humanWriter picks the stream for the human-readable block: stderr when
// the JSON document owns stdout ("-"), stdout otherwise.
func humanWriter(jsonOut string) io.Writer {
	if jsonOut == "-" {
		return os.Stderr
	}
	return os.Stdout
}

// printMetrics renders the common quality-metric block (plus the optional
// extra line and the -verbose per-partition table) for either ingress path.
func printMetrics(out io.Writer, s partition.Strategy, parts int, sum partitionSummary, edgeCount []int64, verbose bool, extra string) {
	_, detail := describeShape(partition.ShapeOf(s, parts))
	fmt.Fprintf(out, "strategy:            %s (%s)\n", s.Name(), detail)
	fmt.Fprintf(out, "partitions:          %d\n", parts)
	fmt.Fprintf(out, "replication factor:  %.4f\n", sum.ReplicationFactor())
	fmt.Fprintf(out, "total replicas:      %d\n", sum.TotalReplicas())
	fmt.Fprintf(out, "edge balance:        %.4f (max/mean)\n", sum.EdgeBalance())
	if extra != "" {
		fmt.Fprintln(out, extra)
	}
	if verbose {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\npartition\tedges\treplicas")
		for p := 0; p < parts; p++ {
			fmt.Fprintf(w, "%d\t%d\t%d\n", p, edgeCount[p], sum.ReplicasOnPart(p))
		}
		w.Flush()
	}
}

// describeShape is the one classification of an IngressShape: the
// three-way class the ingress pipeline dispatches on, and the shape in words.
func describeShape(shape partition.IngressShape) (class, detail string) {
	switch {
	case shape.MultiPassReason != "":
		return fmt.Sprintf("multi-pass (%d passes)", shape.Passes),
			fmt.Sprintf("%d passes: %s", shape.Passes, shape.MultiPassReason)
	case shape.Loaders > 0:
		return "streaming", fmt.Sprintf("1 streaming pass, %d independent loaders", shape.Loaders)
	default:
		return "stateless", "1 streaming pass, stateless"
	}
}

// listStrategies prints every registered strategy with its capability class,
// derived from partition.ShapeOf — never from the name.
func listStrategies(out io.Writer, parts int) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tclass\tingress shape")
	for _, n := range partition.AllNames() {
		s := partition.MustNew(n, partition.Options{})
		class, detail := describeShape(partition.ShapeOf(s, parts))
		fmt.Fprintf(w, "%s\t%s\t%s\n", n, class, detail)
	}
	w.Flush()
}
