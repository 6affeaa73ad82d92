package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// declaration mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are written down. The benchmark reads it at run
// time, prints every value with the unit declared there, and refuses to
// report a name the file does not declare or to omit one it does.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration finds BENCHMARK.json in the working directory or its
// parent (the benchmark runs from its own directory under `go run -C`)
// and returns it with the directory it lies in, the root of the checkout.
func loadDeclaration() (*declaration, string, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &d, root, nil
	}
	return nil, "", firstErr
}

// config is what one run of one workload is given.
type config struct {
	seed    uint64
	seconds float64 // length of the timed window
	workers int     // W: every workers argument and every client count
	sz      sizes
	dir     string    // scratch directory for generated files, inside the checkout
	log     io.Writer // every failed operation is named here
	probe   *probe    // the reference work pass times are divided by
	// sabotage corrupts the oracle's reference after set-up; the tests use
	// it to prove that a wrong answer is counted as a failure.
	sabotage bool
}

// passResult is what one pass (or service segment) reports.
type passResult struct {
	attempted, failed int64
	problems          []string // what failed, one line each
	// counts are the pass's deterministic outputs (replication factor,
	// supersteps, status totals, …). They must repeat exactly from pass to
	// pass; the runner fails a pass whose counts differ from the first.
	counts map[string]float64
}

// workload is one named set of inputs plus the passes over them.
type workload interface {
	// setUp does everything that precedes the first timed pass except the
	// warm-up pass itself: generation from the seed, file writes, oracle
	// references, cache warming, churn pre-load.
	setUp(c *config) error
	// items is the work in one pass: input edges for a batch workload,
	// requests or churned edges for a service workload.
	items() int64
	// pass runs one pass; tr is nil in the untraced run.
	pass(tr *tracer) passResult
	// rest runs between two passes, outside the timed window.
	rest()
	// products returns what the last pass built, so that the retained-heap
	// reading can hold it live.
	products() any
	// extras takes the traced run's additional measurements.
	extras(c *config, tr *tracer, spans []span, lm layerMetrics) error
	// finish verifies whatever can only be checked after the last pass.
	finish() passResult
	// tearDown releases the set-up (servers, references to inputs).
	tearDown()
}

// layerMetrics collects per-layer values by declared name.
type layerMetrics map[string]float64

const setupReps = 3

// outcome is one measured run of one workload in one mode.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"` // timed passes or segments
	PassQ1    float64            `json:"pass_q1_s"`
	PassQ3    float64            `json:"pass_q3_s"`
	Metrics   map[string]float64 `json:"metrics"`
	spans     []span
}

// timed is the result of one window of passes.
type timed struct {
	durs              []float64 // seconds, per pass
	costs             []float64 // pass time ÷ mean time of the two probes around it
	probes            []float64 // seconds, two per pass
	allocs            []float64 // heap bytes allocated, per pass
	attempted, failed int64
	counts            map[string]float64
	gcCycles          uint32
	gcPauseNs         uint64
}

// runPasses repeats w.pass until budget seconds have passed and at least
// minPasses are done. Counts that differ from the first pass's fail the
// pass and are named on the log.
func runPasses(w workload, name string, c *config, tr *tracer, budget float64, minPasses int) timed {
	var t timed
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := newAllocMeter()
	start := time.Now()
	for len(t.durs) < minPasses || time.Since(start).Seconds() < budget {
		w.rest()
		before := c.probe.run(c.workers)
		var id int32
		if tr != nil {
			tr.pass = int32(len(t.durs))
			id = tr.begin("pass", "")
		}
		a0, t0 := heap.bytes(), time.Now()
		r := w.pass(tr)
		dur := time.Since(t0).Seconds()
		t.allocs = append(t.allocs, float64(heap.bytes()-a0))
		if tr != nil {
			tr.end(id)
		}
		after := c.probe.run(c.workers)
		t.durs = append(t.durs, dur)
		t.probes = append(t.probes, before, after)
		t.costs = append(t.costs, dur/((before+after)/2))
		if t.counts == nil {
			t.counts = r.counts
		} else if diff := countsDiffer(t.counts, r.counts); diff != "" && r.failed == 0 {
			r.problems = append(r.problems, fmt.Sprintf("pass %d: count %s does not repeat", len(t.durs)-1, diff))
			r.failed++
		}
		t.add(name, c.log, r)
	}
	runtime.ReadMemStats(&m1)
	t.gcCycles = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	t.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return t
}

// add books one pass's operations and names its failures on the log.
func (t *timed) add(name string, log io.Writer, r passResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	for _, p := range r.problems {
		fmt.Fprintf(log, "FAIL %s: %s\n", name, p)
	}
}

// merge books another window's operations, which add has already named.
func (t *timed) merge(o timed) {
	t.attempted += o.attempted
	t.failed += o.failed
}

func countsDiffer(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s (%v, then %v)", k, a[k], bv)
		}
	}
	if len(b) != len(a) {
		return "set of counts"
	}
	return ""
}

// retainedMiB is the live heap, less the probe's own array, after forced
// collections while keep is still referenced. Two of them: what a
// sync.Pool holds survives the first.
func (c *config) retainedMiB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc-c.probe.bytes()) / (1 << 20)
}

// measure runs one workload once: repeated set-up, then either the
// untraced window that yields the end-to-end metrics, or the traced run
// that yields the per-layer ones.
func measure(w workload, name string, c *config, traced bool) (*outcome, error) {
	out := &outcome{Workload: name, Traced: traced, Metrics: map[string]float64{}}
	var total timed // every operation of the run, inside the timed windows and outside
	defer func() { out.Attempted, out.Failed = total.attempted, total.failed }()
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			w.tearDown()
		}
		before, t0 := c.probe.run(c.workers), time.Now()
		if err := w.setUp(c); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		// One discarded pass fills the page cache and grows the heap.
		warm := w.pass(nil)
		dur := time.Since(t0).Seconds()
		setups = append(setups, dur/((before+c.probe.run(c.workers))/2)*probeNominalSeconds)
		total.add(name, c.log, warm)
	}
	defer w.tearDown()
	// Read here, after the warm-up pass and before the timed window, the
	// retained heap is that of a fixed history: how much a server's state
	// has grown later depends on how many segments the window had time for.
	retained := c.retainedMiB(w.products())

	if !traced {
		t := runPasses(w, name, c, nil, c.seconds, 3)
		total.merge(t)
		total.add(name, c.log, w.finish())
		out.Samples = len(t.durs)
		out.PassQ1, out.PassQ3 = quantile(t.durs, 0.25), quantile(t.durs, 0.75)
		out.Metrics["setup_s"] = median(setups)
		out.Metrics["pass_cost"] = median(t.costs)
		// The lower quartile: a collection or an emptied buffer pool adds to
		// what a pass allocates, from outside, and nothing takes away.
		out.Metrics["alloc_bytes_per_item"] = quantile(t.allocs, 0.25) / float64(w.items())
		out.Metrics["retained_heap_mb"] = retained
		return out, nil
	}

	// Traced: a third of the window untraced (the base line the tracing
	// overhead is measured against), a third traced, then the extras.
	lm := layerMetrics{}
	plain := runPasses(w, name, c, nil, c.seconds/3, 3)
	tr := newTracer(time.Now(), 0, true)
	withSpans := runPasses(w, name, c, tr, c.seconds/3, 3)
	total.merge(plain)
	total.merge(withSpans)
	tr.pass = -1 // extras sit outside every pass
	passSpans := len(tr.spans)
	for k, v := range withSpans.counts {
		lm[k] = v
	}
	lm["proc.workers"] = float64(c.workers)
	if err := w.extras(c, tr, tr.spans[:passSpans], lm); err != nil {
		return nil, fmt.Errorf("%s: traced extras: %w", name, err)
	}
	total.add(name, c.log, w.finish())

	out.Samples = len(withSpans.durs)
	out.PassQ1, out.PassQ3 = quantile(withSpans.durs, 0.25), quantile(withSpans.durs, 0.75)
	lm["proc.peak_rss_mb"] = peakRSSMiB()
	lm["proc.gc_cycles"] = float64(plain.gcCycles) / float64(len(plain.durs))
	lm["proc.gc_pause_ms"] = float64(plain.gcPauseNs) / 1e6 / float64(len(plain.durs))
	lm["proc.pass_s"] = median(plain.durs)
	lm["proc.fastest_pass_s"] = fastest(plain.durs)
	lm["proc.items_per_s"] = float64(w.items()) / median(plain.durs)
	lm["proc.probe_ms"] = 1e3 * median(plain.probes)
	lm["proc.pass_iqr_frac"] = iqrFrac(plain.durs)
	lm["trace.spans"] = float64(len(tr.spans))
	lm["trace.coverage_frac"] = coverage(tr.spans[:passSpans])
	lm["trace.overhead_frac"] = median(withSpans.costs)/median(plain.costs) - 1
	out.Metrics = lm
	out.spans = tr.spans
	return out, nil
}

// spanSeconds sets "<span name>_s" to the median over passes of the
// summed self time of the spans of that name, for every layer span.
func spanSeconds(spans []span, lm layerMetrics) {
	names := map[string]bool{}
	for _, s := range spans {
		if s.Name != "pass" && s.layer() != "bench" {
			names[s.Name] = true
		}
	}
	for name := range names {
		lm[name+"_s"] = median(passTotals(spans, func(s span) bool { return s.Name == name }))
	}
}

// coverage is the share of a pass's wall-clock that lies inside spans of
// named layers — everything but the pass span itself and the benchmark's
// own verification. For service segments the wall-clock is that of all
// clients together.
func coverage(spans []span) float64 {
	isRoot := func(s span) bool { return s.Name == "pass" || s.Name == "bench.client" }
	inLayers := passTotals(spans, func(s span) bool { return !isRoot(s) && s.layer() != "bench" })
	wall := map[int32]float64{}
	clients := map[int32]float64{}
	for _, s := range spans {
		switch s.Name {
		case "pass":
			wall[s.Pass] += s.dur().Seconds()
		case "bench.client":
			clients[s.Pass] += s.dur().Seconds()
		}
	}
	fracs := make([]float64, 0, len(inLayers))
	for p, in := range inLayers {
		total := wall[int32(p)]
		if c := clients[int32(p)]; c > 0 {
			total = c
		}
		if total > 0 {
			fracs = append(fracs, in/total)
		}
	}
	return median(fracs)
}

// peakRSSMiB reads the process's high-water resident set from the kernel
// (0 where /proc is not available).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
