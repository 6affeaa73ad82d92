package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

// stage is one call into a layer during a batch pass.
type stage struct {
	span, arg string
	// w1 and speedup name the per-layer metrics of the single-thread
	// baseline: the traced run repeats the stage with workers = 1 and
	// reports that time beside the W-worker time. Empty for a call that
	// takes no workers argument.
	w1, speedup string
	// holds names the layer whose products the stage leaves on the heap,
	// where that is not the layer of its span.
	holds string
	run   func(tr *tracer, workers int) error
}

// batch is a workload made of passes: each pass runs the stages in order
// on W workers, from a file on disk to a verified result.
type batch struct {
	name string
	// prepare generates the inputs from the seed, writes them into dir and
	// computes the oracle's references.
	prepare func(c *config, dir string) error
	stages  []stage
	// verify checks the pass's products against the references; it
	// returns the pass's counts and one line per mismatch.
	verify func() (map[string]float64, []string)
	keep   func() any
	// more takes the workload's own traced-only measurements.
	more func(c *config, tr *tracer, lm layerMetrics) error
	// drop releases the products of the last pass.
	drop func()

	workers   int
	edges     int64
	fileBytes int64
	maxRelErr float64 // worst oracle error seen, for app.oracle_max_rel_err
}

func (b *batch) setUp(c *config) error {
	b.workers = c.workers
	dir, err := os.MkdirTemp(c.dir, b.name+"-*")
	if err != nil {
		return err
	}
	return b.prepare(c, dir)
}

func (b *batch) items() int64       { return b.edges }
func (b *batch) products() any      { return b.keep() }
func (b *batch) tearDown()          { b.drop() }
func (b *batch) finish() passResult { return passResult{} }

// rest collects twice, the second time for what sync.Pools hold: every
// pass starts from the heap a fresh CLI process would start from, and how
// much a pass allocates does not depend on when the collector last ran.
func (b *batch) rest() {
	runtime.GC()
	runtime.GC()
}

func (b *batch) pass(tr *tracer) passResult {
	r := passResult{attempted: 1}
	for _, st := range b.stages {
		if err := tr.do(st.span, st.arg, func() error { return st.run(tr, b.workers) }); err != nil {
			r.failed, r.problems = 1, []string{fmt.Sprintf("%s: %v", st.span, err)}
			return r
		}
	}
	tr.do("bench.verify", "", func() error { //nolint:errcheck // the closure returns nil
		r.counts, r.problems = b.verify()
		return nil
	})
	if len(r.problems) > 0 {
		r.failed = 1
	}
	return r
}

// family names the ingress capability class a strategy belongs to.
func family(s partition.Strategy) string {
	switch s.(type) {
	case partition.StatelessStrategy:
		return "stateless"
	case partition.StreamingStrategy:
		return "streaming"
	default:
		return "multipass"
	}
}

// extras derives the per-layer numbers of the traced passes and then
// takes the measurements only the traced run pays for: the same pass on
// one worker, a pass with forced-GC heap readings at the layer
// boundaries, and the workload's own additions.
func (b *batch) extras(c *config, tr *tracer, spans []span, lm layerMetrics) error {
	spanSeconds(spans, lm)
	passes := float64(numPasses(spans))
	alloc := map[string]float64{}
	families := map[string]string{} // strategy → capability class
	for _, s := range spans {
		alloc[s.Name] += float64(s.Alloc) / passes
		if s.layer() != "partition" || s.Arg == "" {
			continue
		}
		if families[s.Arg] == "" {
			strat, err := partition.New(s.Arg, partition.Options{})
			if err != nil {
				return err
			}
			families[s.Arg] = family(strat)
		}
		lm["partition."+families[s.Arg]+"_s"] += s.dur().Seconds() / passes
	}
	e := float64(b.edges)
	assigned := e * float64(countStages(b.stages, "partition.assign")) // the sweep assigns the graph 12 times
	if t := lm["graph.load_s"]; t > 0 {
		lm["graph.load_edges_per_s"] = e / t
	}
	if t := lm["partition.assign_s"]; t > 0 {
		lm["partition.assign_edges_per_s"] = assigned / t
		lm["partition.assign_alloc_bytes_per_edge"] = alloc["partition.assign"] / assigned
	}
	if t := lm["engine.run_s"]; t > 0 {
		lm["engine.edge_visits_per_s"] = lm["engine.edges_processed"] / t
		lm["engine.us_per_superstep"] = t * 1e6 / lm["engine.supersteps"]
	}
	lm["graph.load_alloc_bytes_per_edge"] = alloc["graph.load"] / e
	lm["graph.file_bytes_per_edge"] = float64(b.fileBytes) / e
	lm["engine.alloc_bytes"] = alloc["engine.run"]
	lm["graphx.alloc_bytes"] = alloc["graphx.run"]

	// The single-thread baseline: three more verified passes with every
	// workers argument set to 1, against the same stages at W.
	first, atFull := len(tr.spans), b.workers
	b.workers = 1
	for i := int32(0); i < 3; i++ {
		tr.pass = -2 - i
		if r := b.pass(tr); r.failed != 0 {
			return fmt.Errorf("the pass on one worker failed")
		}
	}
	b.workers = atFull
	tr.pass = -1
	atW := map[string]float64{}
	for _, st := range b.stages {
		if st.w1 != "" {
			lm[st.w1] += median(spanTotals(tr.spans[first:], st.span, st.arg))
			atW[st.speedup] += median(spanTotals(spans, st.span, st.arg))
		}
	}
	for _, st := range b.stages {
		if st.w1 != "" && atW[st.speedup] > 0 {
			lm[st.speedup] = lm[st.w1] / atW[st.speedup]
		}
	}
	lm["app.oracle_max_rel_err"] = b.maxRelErr

	// One more pass with a forced collection after every stage: what each
	// layer's products add to the live heap.
	b.drop()
	base := c.retainedMiB(nil)
	for _, st := range b.stages {
		if err := st.run(nil, b.workers); err != nil {
			return err
		}
		now := c.retainedMiB(b.keep())
		layer := st.holds
		if layer == "" {
			layer = strings.SplitN(st.span, ".", 2)[0]
		}
		switch layer {
		case "graph", "partition", "engine":
			lm[layer+".retained_mb"] += now - base
		}
		base = now
	}
	if b.more != nil {
		return b.more(c, tr, lm)
	}
	return nil
}

func countStages(stages []stage, span string) int {
	n := 0
	for _, st := range stages {
		if st.span == span {
			n++
		}
	}
	return n
}

func numPasses(spans []span) int {
	n := int32(1)
	for _, s := range spans {
		n = max(n, s.Pass+1)
	}
	return int(n)
}

var model = cluster.DefaultModel()

// checkQuality recounts an assignment's quality from its per-edge
// placement and compares it with what the assignment reports.
func checkQuality(what string, a *partition.Assignment, problems []string) (quality, []string) {
	got := quality{a.ReplicationFactor(), a.EdgeBalance()}
	ref := refQuality(a.G.NumVertices(), a.NumParts, a.G.Edges, a.EdgeParts)
	if !sameQuality(got, ref) {
		problems = append(problems, fmt.Sprintf("%s: assignment reports RF %v balance %v, recount gives RF %v balance %v",
			what, got.RF, got.Balance, ref.RF, ref.Balance))
	}
	return got, problems
}

// checkValues compares computed vertex values with the oracle's.
func (b *batch) checkValues(what string, got, want []float64, problems []string) []string {
	err := maxRelErr(got, want)
	// The metric is printed as JSON, which has no infinity.
	if worst := math.Min(err, math.MaxFloat64); worst > b.maxRelErr {
		b.maxRelErr = worst
	}
	if err > valueRelTol {
		problems = append(problems, fmt.Sprintf("%s: values differ from the reference by %.3g (limit %.0e)", what, err, valueRelTol))
	}
	return problems
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// pipelineSpec is what the three load → partition → compute workloads
// differ in: graph, file format, strategy and engine.
type pipelineSpec struct {
	name     string
	generate func(seed uint64, sz sizes) *graph.Graph
	file     graphFile
	strategy string
	parts    int
	// reference computes the oracle's vertex values.
	reference func(g *graph.Graph) []float64
	// compute runs the engine stage and returns values and counts.
	computeSpan string
	w1, speedup string
	compute     func(a *partition.Assignment, workers int) ([]float64, map[string]float64, error)
	ingress     bool // price ingress on the simulated cluster (PowerGraph's loader)
	// more takes the workload's own traced-only measurements; dir is where
	// the pass's input file lies.
	more func(c *config, dir string, tr *tracer, lm layerMetrics) error
}

func newPipeline(spec pipelineSpec) *batch {
	var (
		path   string
		seed   uint64
		want   []float64
		g      *graph.Graph
		a      *partition.Assignment
		values []float64
		counts map[string]float64
	)
	strat := partition.MustNew(spec.strategy, partition.Options{})
	b := &batch{name: spec.name}
	b.prepare = func(c *config, dir string) error {
		seed = c.seed
		src := spec.generate(c.seed, c.sz)
		var err error
		if path, err = spec.file.save(src, dir); err != nil {
			return err
		}
		b.edges, b.fileBytes = int64(src.NumEdges()), fileSize(path)
		want = spec.reference(src)
		if c.sabotage {
			want[len(want)/2]++
		}
		if spec.more != nil {
			b.more = func(c *config, tr *tracer, lm layerMetrics) error { return spec.more(c, dir, tr, lm) }
		}
		return nil
	}
	b.stages = []stage{
		{span: "graph.load", run: func(*tracer, int) (err error) {
			g, err = graph.LoadFile(path)
			return err
		}},
		{span: "graph.adjacency", run: func(*tracer, int) error {
			g.EnsureCSR()
			return nil
		}},
		{span: "partition.assign", arg: spec.strategy, w1: "partition.assign_w1_s", speedup: "partition.speedup",
			run: func(_ *tracer, workers int) (err error) {
				a, err = partition.ParallelPartition(g, strat, spec.parts, seed, workers)
				return err
			}},
	}
	if spec.ingress {
		b.stages = append(b.stages, stage{span: "cluster.ingress_model", run: func(*tracer, int) error {
			if st := cluster.Ingress(a, strat, cluster.EC2x16, model); st.Seconds <= 0 {
				return fmt.Errorf("ingress model priced %s at %v s", st.Strategy, st.Seconds)
			}
			return nil
		}})
	}
	b.stages = append(b.stages, stage{span: spec.computeSpan, w1: spec.w1, speedup: spec.speedup,
		run: func(_ *tracer, workers int) (err error) {
			values, counts, err = spec.compute(a, workers)
			return err
		}})
	b.verify = func() (map[string]float64, []string) {
		var problems []string
		if int64(g.NumEdges()) != b.edges {
			problems = append(problems, fmt.Sprintf("loaded %d edges, wrote %d", g.NumEdges(), b.edges))
		}
		q, problems := checkQuality(spec.strategy, a, problems)
		problems = b.checkValues(spec.computeSpan, values, want, problems)
		out := map[string]float64{"partition.rf": q.RF, "partition.edge_balance": q.Balance}
		for k, v := range counts {
			out[k] = v
		}
		return out, problems
	}
	b.keep = func() any { return []any{g, a, values} }
	b.drop = func() { g, a, values, counts = nil, nil, nil, nil }
	return b
}

var pipelinePowerlaw = pipelineSpec{
	name: "pipeline-powerlaw", generate: genWeb, file: webV2, strategy: "HDRF", parts: partsGAS, ingress: true,
	reference:   func(g *graph.Graph) []float64 { return refPageRank(g.NumVertices(), g.Edges, 10, false) },
	computeSpan: "engine.run", w1: "engine.w1_s", speedup: "engine.speedup",
	compute: func(a *partition.Assignment, workers int) ([]float64, map[string]float64, error) {
		out, err := engine.Run[float64, float64](engine.ModePowerGraph, app.PageRank{}, a, cluster.EC2x16, model,
			engine.Options{FixedIterations: 10, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return out.Values, engineCounts(out.Stats), nil
	},
	more: loadPaths,
}

var pipelineRoad = pipelineSpec{
	name: "pipeline-road", generate: genRoad, file: roadText, strategy: "2D", parts: partsGAS,
	reference:   func(g *graph.Graph) []float64 { return refBFS(g.NumVertices(), g.Edges, 0) },
	computeSpan: "engine.run", w1: "engine.w1_s", speedup: "engine.speedup",
	compute: func(a *partition.Assignment, workers int) ([]float64, map[string]float64, error) {
		out, err := engine.Run[float64, float64](engine.ModePowerLyra, app.SSSP{Source: 0}, a, cluster.EC2x16, model,
			engine.Options{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		if !out.Stats.Converged {
			return nil, nil, fmt.Errorf("SSSP did not converge in %d supersteps", out.Stats.Supersteps)
		}
		return out.Values, engineCounts(out.Stats), nil
	},
}

var pipelineGraphX = pipelineSpec{
	name: "pipeline-graphx", generate: genSocial, file: socialV1, strategy: "2D", parts: partsGraphX,
	reference:   func(g *graph.Graph) []float64 { return refPageRank(g.NumVertices(), g.Edges, 10, true) },
	computeSpan: "graphx.run", w1: "graphx.w1_s", speedup: "graphx.speedup",
	compute: func(a *partition.Assignment, workers int) ([]float64, map[string]float64, error) {
		out, err := graphx.Run[float64, float64](app.PageRank{}, a,
			graphx.Config{Cluster: cluster.GraphXLocal10, Iterations: 10, Workers: workers}, model)
		if err != nil {
			return nil, nil, err
		}
		return out.Values, map[string]float64{"graphx.iterations": float64(out.Stats.Iterations)}, nil
	},
}

func engineCounts(st engine.Stats) map[string]float64 {
	return map[string]float64{
		"engine.supersteps":      float64(st.Supersteps),
		"engine.edges_processed": float64(st.EdgesProcessed),
	}
}

// loadPaths times one graph through all four load paths, and the bare
// placement without the assignment build — once, in the traced run of
// pipeline-powerlaw, so that the formats can be compared on one input.
func loadPaths(c *config, dir string, tr *tracer, lm layerMetrics) error {
	v2 := filepath.Join(dir, webV2.name)
	g, err := graph.LoadFile(v2)
	if err != nil {
		return err
	}
	text, err := webText.save(g, dir)
	if err != nil {
		return err
	}
	v1, err := webV1.save(g, dir)
	if err != nil {
		return err
	}
	paths := []struct {
		metric, arg string
		load        func() (*graph.Graph, error)
	}{
		{"graph.load_text_s", "text", func() (*graph.Graph, error) { return graph.LoadFile(text) }},
		{"graph.load_v1mmap_s", "v1-mmap", func() (*graph.Graph, error) { return graph.LoadCSRWith(v1, graph.CSRLoadOptions{}) }},
		{"graph.load_v1read_s", "v1-read", func() (*graph.Graph, error) {
			return graph.LoadCSRWith(v1, graph.CSRLoadOptions{DisableMmap: true})
		}},
		{"graph.load_v2_s", "v2", func() (*graph.Graph, error) { return graph.LoadFile(v2) }},
	}
	for _, p := range paths {
		var durs []float64
		for i := 0; i < 3; i++ {
			id := tr.begin("graph.load", p.arg)
			got, err := p.load()
			tr.end(id)
			if err != nil {
				return err
			}
			if got.NumEdges() != g.NumEdges() {
				return fmt.Errorf("%s loaded %d edges of %d", p.arg, got.NumEdges(), g.NumEdges())
			}
			durs = append(durs, tr.spans[id].dur().Seconds())
		}
		lm[p.metric] = median(durs)
	}
	return placeSeconds(g, c.seed, lm)
}

// placeSeconds times HDRF's Strategy.Partition alone: the placement
// without the drivers and without the Assignment build.
func placeSeconds(g *graph.Graph, seed uint64, lm layerMetrics) error {
	t0 := time.Now()
	_, err := partition.MustNew("HDRF", partition.Options{}).Partition(g, partsGAS, seed)
	lm["partition.place_s"] = time.Since(t0).Seconds()
	return err
}
