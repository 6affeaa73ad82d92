// Command benchmark is this repository's performance ledger: seven named
// workloads over seed-generated graphs drive the real entry points of
// graph, datasets, partition, cluster, engine, engine/graphx, app and
// service, verify every timed result against independent references, and
// report the end-to-end and per-layer metrics BENCHMARK.json declares.
// README.md in this directory says how to run and read it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads constructs a fresh instance of each workload, in the order
// BENCHMARK.json lists them.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"pipeline-powerlaw", func() workload { return newPipeline(pipelinePowerlaw) }},
	{"pipeline-road", func() workload { return newPipeline(pipelineRoad) }},
	{"pipeline-graphx", func() workload { return newPipeline(pipelineGraphX) }},
	{"stream-ingest", func() workload { return newStreamIngest() }},
	{"partition-sweep", func() workload { return newPartitionSweep() }},
	{"service-lookup", func() workload { return newServiceLookup() }},
	{"service-churn", func() workload { return newServiceChurn() }},
}

// fingerprint is the environment a number was measured in; two ledger
// lines are comparable only when theirs agree.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
}

func (f fingerprint) String() string {
	rev := f.Revision
	if f.Dirty {
		rev += "+dirty"
	}
	return fmt.Sprintf("seed=%d W=%d GOMAXPROCS=%d NumCPU=%d %s/%s %s rev=%s",
		f.Seed, f.Workers, f.GOMAXPROCS, f.NumCPU, f.GOOS, f.GOARCH, f.GoVersion, rev)
}

// revision asks git about the checkout the declaration was found in, and
// only when that directory is itself a git work tree: the benchmark must
// not read outside its checkout.
func revision(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(status) > 0
}

func newFingerprint(root string, seed uint64, workers int) fingerprint {
	rev, dirty := revision(root)
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Revision: rev, Dirty: dirty, Seed: seed, Workers: workers,
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared returns the metrics an outcome must carry, in declared order,
// after checking that it carries nothing else. A per-layer metric the
// workload's layers never touch reads 0: the layer was idle.
func declared(decl *declaration, out *outcome) ([]metricDecl, error) {
	list := decl.EndToEnd
	if out.Traced {
		list = decl.PerLayer
	}
	names := map[string]bool{}
	for _, m := range list {
		names[m.Name] = true
		if _, ok := out.Metrics[m.Name]; !ok && !out.Traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", out.Workload, m.Name)
		}
	}
	for name := range out.Metrics {
		if !names[name] {
			return nil, fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", out.Workload, name)
		}
	}
	return list, nil
}

// printOutcome writes the human-readable block and then the result line.
func printOutcome(decl *declaration, fp fingerprint, out *outcome) error {
	list, err := declared(decl, out)
	if err != nil {
		return err
	}
	mode := "end-to-end"
	if out.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# %s %s: %s\n", out.Workload, mode, fp)
	fmt.Printf("# %d timed passes, pass quartiles %.6g / %.6g s, %d operations verified, %d failed\n",
		out.Samples, out.PassQ1, out.PassQ3, out.Attempted, out.Failed)
	line := resultLine{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v := out.Metrics[m.Name]
		fmt.Printf("%-20s %-40s %16.6g %s\n", out.Workload, m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if out.Traced {
		for _, l := range costLines(out) {
			fmt.Println(l)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// costLines put the single-thread baseline beside every scaling number:
// for each parallel layer the workload used, by how much W workers beat
// one — or that they never do.
func costLines(out *outcome) []string {
	var lines []string
	w := int(out.Metrics["proc.workers"])
	for _, layer := range []string{"partition", "engine", "graphx"} {
		s := out.Metrics[layer+".speedup"]
		switch {
		case s == 0:
		case s > 1:
			lines = append(lines, fmt.Sprintf("COST %s %s: %d workers beat 1 by ×%.2f", out.Workload, layer, w, s))
		default:
			lines = append(lines, fmt.Sprintf("COST %s %s: %d workers never beat 1 (×%.2f)", out.Workload, layer, w, s))
		}
	}
	return lines
}

// appendLedger adds one line per run; the ledger is a history, never
// rewritten.
func appendLedger(path string, fp fingerprint, out *outcome) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Time string `json:"time"`
		fingerprint
		*outcome
	}{time.Now().UTC().Format(time.RFC3339), fp, out})
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 0, "length of the timed window (0: run_seconds of BENCHMARK.json)")
		traced    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace JSON to this file")
		ledger    = flag.String("ledger", "", "append one NDJSON line per workload run to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice and compare the medians against the bounds")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	decl, root, err := loadDeclaration()
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	dir, err := os.MkdirTemp(".", ".benchtmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	c := &config{seed: *seed, seconds: *seconds, workers: min(runtime.NumCPU(), 4), sz: fullSizes, dir: dir, log: os.Stderr, probe: newProbe()}
	fp := newFingerprint(root, c.seed, c.workers)

	if *selfcheck {
		ok, err := selfCheck(decl, fp, c)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	ran, failed := 0, int64(0)
	for _, wl := range workloads {
		if *name != "all" && *name != wl.name {
			continue
		}
		ran++
		out, err := measure(wl.new(), wl.name, c, *traced == 1)
		if err != nil {
			return fail(err)
		}
		if err := printOutcome(decl, fp, out); err != nil {
			return fail(err)
		}
		failed += out.Failed
		if *traceOut != "" && out.Traced {
			path := *traceOut
			if *name == "all" {
				path = strings.TrimSuffix(path, ".json") + "." + wl.name + ".json"
			}
			if err := writeChromeTrace(path, out.spans); err != nil {
				return fail(err)
			}
		}
		if *ledger != "" {
			if err := appendLedger(*ledger, fp, out); err != nil {
				return fail(err)
			}
		}
	}
	if ran == 0 {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// selfCheckRuns is how many runs of each workload make one set.
const selfCheckRuns = 3

// selfCheck is the evidence for repeatability: two sets, each the median
// of three runs of every workload, every run a process of its own as the
// driver's runs are (a second run in one process finds the heap grown and
// the page cache warm, and sets up faster). For every workload ×
// end-to-end metric it prints both medians, their relative difference and
// the bound, and it reports false when a pair differs by more than its
// bound or an operation failed.
func selfCheck(decl *declaration, fp fingerprint, c *config) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	var sets [2]map[string]map[string][]float64 // set → workload → metric → one value per run
	for i := range sets {
		sets[i] = map[string]map[string][]float64{}
		for _, wl := range workloads {
			sets[i][wl.name] = map[string][]float64{}
			for run := 0; run < selfCheckRuns; run++ {
				cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("set %d: %s: %w", i+1, wl.name, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var r resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					return false, fmt.Errorf("set %d: %s: result line: %w", i+1, wl.name, err)
				}
				ok = ok && r.Correct
				for name, v := range r.Metrics {
					sets[i][wl.name][name] = append(sets[i][wl.name][name], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", i+1, wl.name)
		}
	}
	fmt.Printf("# selfcheck, medians of %d runs: %s\n", selfCheckRuns, fp)
	fmt.Printf("%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, wl := range workloads {
		for _, m := range decl.EndToEnd {
			a, b := median(sets[0][wl.name][m.Name]), median(sets[1][wl.name][m.Name])
			d := relDiff(a, b)
			verdict := ""
			if d > m.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", wl.name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("# selfcheck %s\n", map[bool]string{true: "passed", false: "FAILED"}[ok])
	return ok, nil
}
