package graphx_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/app"
	"graphpart/internal/cluster"
	"graphpart/internal/engine"
	"graphpart/internal/engine/graphx"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/stats.digest")

// digestWorkers are the worker counts every digest case runs at; all must
// produce the same line, so the file holds one line per case.
var digestWorkers = []int{1, 3}

// nonDyadicModel perturbs every constant the engines add per edge, vertex or
// step to a value with no short binary expansion, so the digest pins the
// *order* floats are summed in, not just exact-integer totals.
func nonDyadicModel() cluster.CostModel {
	m := cluster.DefaultModel()
	m.GatherEdgeNs = 40.1
	m.ScatterEdgeNs = 25.3
	m.ApplyVertexNs = 600.7
	m.BarrierNs = 1.2e6 + 0.7
	m.TaskOverheadNs = 2.5e6 + 0.3
	m.RDDEdgeNs = 55.7
	m.SignalBytes = 7
	m.MsgOverheadBytes = 47
	return m
}

// digestGraphs: a skewed graph with three isolated vertices (ids below the
// maximum that carry no edge, as in edge-list datasets) and a high-diameter
// road network whose long tail of small frontiers runs inline.
func digestGraphs() []*graph.Graph {
	plaw := gen.PrefAttach("digest-plaw", 1500, 5, 0x9)
	n := graph.VertexID(plaw.NumVertices())
	edges := append(append([]graph.Edge(nil), plaw.Edges...), graph.Edge{Src: n + 3, Dst: n + 4})
	return []*graph.Graph{
		graph.FromEdges("plaw", edges),
		gen.RoadNet("road", 24, 24, 0x9),
	}
}

func hexF(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// hashF digests a float slice as length/FNV-1a over the IEEE-754 bits.
func hashF(fs []float64) string {
	h := fnv.New64a()
	for _, f := range fs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(f))
	}
	return fmt.Sprintf("%d/%016x", len(fs), h.Sum64())
}

// hashValues digests a vertex-value slice bit for bit.
func hashValues(vals any) string {
	h := fnv.New64a()
	switch vs := vals.(type) {
	case []float64:
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	case []int:
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	case nil:
	default:
		if err := binary.Write(h, binary.LittleEndian, vs); err != nil {
			panic(err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func gasLine(vals any, st engine.Stats) string {
	return fmt.Sprintf("steps=%d conv=%t edges=%d compute=%s net=%s mem=%s util=%s step-s=%s values=%s",
		st.Supersteps, st.Converged, st.EdgesProcessed, hexF(st.ComputeSeconds), hexF(st.AvgNetInGB),
		hexF(st.PeakMemGB), hashF(st.CPUUtil), hashF(st.SuperstepSeconds), hashValues(vals))
}

func gxLine(vals any, st graphx.Stats) string {
	return fmt.Sprintf("iters=%d conv=%t failed=%t fit=%d gc=%s part=%s compute=%s net=%s mem=%s util=%s iter-s=%s cum-s=%s values=%s",
		st.Iterations, st.Converged, st.Failed, st.FitAttempts, hexF(st.GCOverhead), hexF(st.PartitionSeconds),
		hexF(st.ComputeSeconds), hexF(st.AvgNetInGB), hexF(st.PeakMemGB), hashF(st.CPUUtil),
		hashF(st.IterSeconds), hashF(st.CumulativeSeconds), hashValues(vals))
}

// digestCase runs one application under a GAS mode (gas) or under GraphX
// (gx) and returns its values and the digest line of its stats.
type digestCase struct {
	name string
	gas  func(engine.Mode, *partition.Assignment, cluster.Config, cluster.CostModel, int) (any, engine.Stats, error)
	gx   func(*partition.Assignment, graphx.Config, cluster.CostModel) (any, graphx.Stats, error)
}

func gasOpts(workers int) engine.Options {
	return engine.Options{Workers: workers, MaxSupersteps: 4000}
}

// programCase runs prog under engine.Run — for fixed > 0 with every vertex
// active for that many supersteps, else to convergence — and under graphx.Run
// capped at iterations.
func programCase[V, A any](name string, prog engine.Program[V, A], fixed, iterations int) digestCase {
	return digestCase{name,
		func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, m cluster.CostModel, w int) (any, engine.Stats, error) {
			opts := gasOpts(w)
			if fixed > 0 {
				opts.MaxSupersteps, opts.FixedIterations = 0, fixed
			}
			out, err := engine.Run(mode, prog, a, cc, m, opts)
			if err != nil {
				return nil, engine.Stats{}, err
			}
			return out.Values, out.Stats, nil
		},
		func(a *partition.Assignment, c graphx.Config, m cluster.CostModel) (any, graphx.Stats, error) {
			c.Iterations = iterations
			out, err := graphx.Run(prog, a, c, m)
			if err != nil {
				return nil, graphx.Stats{}, err
			}
			return out.Values, out.Stats, nil
		}}
}

// gasApps are the paper's six applications; gxApps the three it runs on
// GraphX: one capped short, one to convergence and one capped long.
var (
	pageRank10 = programCase("PageRank(10)", app.PageRank{}, 10, 10)
	wcc        = programCase("WCC", app.WCC{}, 0, 0)
	sssp       = programCase("SSSP", app.SSSP{Source: 0}, 0, 25)

	gasApps = []digestCase{
		pageRank10,
		programCase("PageRank(C)", app.PageRank{Tolerance: 1e-2}, 0, 0),
		wcc,
		sssp,
		{name: "K-Core", gas: func(mode engine.Mode, a *partition.Assignment, cc cluster.Config, m cluster.CostModel, w int) (any, engine.Stats, error) {
			return app.KCoreDecomposition(mode, 3, 6, a, cc, m, gasOpts(w))
		}},
		programCase("Coloring", app.Coloring{}, 0, 0),
	}
	gxApps = []digestCase{{name: "PageRank", gx: pageRank10.gx}, wcc, sssp}
)

// workingSet is the Fig 9.4 per-machine working set of an assignment, used
// to place the executor budget in the pressured regime.
func workingSet(a *partition.Assignment, cc cluster.Config, m cluster.CostModel) float64 {
	var total float64
	for p := 0; p < a.NumParts; p++ {
		total += float64(a.ReplicasOnPart(p))*float64(m.ReplicaBytes) + float64(a.EdgeCount[p])*float64(m.EdgeMemBytes)
	}
	return total / float64(cc.Machines)
}

// TestStatsDigest is the engines' byte gate: every float of engine.Stats and
// graphx.Stats (scalars as IEEE-754 hex, per-machine and per-step series as
// length/FNV of their bits) and an FNV of Values, over 6 apps × 2 GAS modes ×
// 5 strategies and 3 apps × 3 strategies × 2 memory budgets for GraphX, on two
// graphs, under the default and a non-dyadic cost model, then two apps × all
// three systems × 2 strategies on a 25 × 4 cluster. A refactor of the
// superstep loop must leave testdata/stats.digest byte-unchanged; regenerate
// with -update only when a modelled cost is meant to move.
func TestStatsDigest(t *testing.T) {
	var buf bytes.Buffer
	emit := func(key string, run func(workers int) (string, error)) {
		var first string
		for _, w := range digestWorkers {
			line, err := run(w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", key, w, err)
			}
			if w == digestWorkers[0] {
				first = line
			} else if line != first {
				t.Errorf("%s: workers=%d differs from workers=%d\n%s\n%s", key, w, digestWorkers[0], line, first)
			}
		}
		fmt.Fprintf(&buf, "%s %s\n", key, first)
	}

	models := []struct {
		name string
		m    cluster.CostModel
	}{{"default", cluster.DefaultModel()}, {"nondyadic", nonDyadicModel()}}
	modes := []struct {
		name string
		mode engine.Mode
	}{{"PowerGraph", engine.ModePowerGraph}, {"PowerLyra", engine.ModePowerLyra}}

	for _, g := range digestGraphs() {
		for _, strat := range []string{"Random", "Grid", "HDRF", "Hybrid", "Oblivious"} {
			a := gxAssignment(t, g, strat, cluster.Local9)
			for _, md := range models {
				for _, mode := range modes {
					for _, ap := range gasApps {
						key := fmt.Sprintf("gas/%s/%s/%s/%s/%s", g.Name, strat, md.name, mode.name, ap.name)
						emit(key, func(w int) (string, error) {
							vals, st, err := ap.gas(mode.mode, a, cluster.Local9, md.m, w)
							return gasLine(vals, st), err
						})
					}
				}
			}
		}
		cc := cluster.GraphXLocal9
		for _, strat := range []string{"CanonicalRandom", "2D", "HDRF"} {
			a := gxAssignment(t, g, strat, cc)
			for _, md := range models {
				// Ample memory, and a budget that fits spread out but not on two
				// executors: GCOverhead > 1 and FitAttempts > 0 (Fig 9.4 case 2).
				budgets := []struct {
					name string
					mem  float64
				}{{"ample", 0}, {"pressured", md.m.ExecutorBase + workingSet(a, cc, md.m)*1.5}}
				for _, b := range budgets {
					for _, ap := range gxApps {
						key := fmt.Sprintf("graphx/%s/%s/%s/%s/%s", g.Name, strat, md.name, b.name, ap.name)
						emit(key, func(w int) (string, error) {
							vals, st, err := ap.gx(a, graphx.Config{Cluster: cc, ExecutorMemBytes: b.mem, Workers: w}, md.m)
							if err == nil && b.mem > 0 && (st.GCOverhead <= 1 || st.FitAttempts == 0) {
								err = fmt.Errorf("budget not pressured: gc=%v fit=%d", st.GCOverhead, st.FitAttempts)
							}
							return gxLine(vals, st), err
						})
					}
				}
			}
		}
		// Fig 9.4 case 1: the graph cannot fit on the whole cluster.
		a := gxAssignment(t, g, "2D", cc)
		m := cluster.DefaultModel()
		emit(fmt.Sprintf("graphx/%s/2D/default/failed/PageRank", g.Name), func(w int) (string, error) {
			vals, st, err := pageRank10.gx(a, graphx.Config{Cluster: cc, ExecutorMemBytes: m.ExecutorBase + workingSet(a, cc, m)/4, Workers: w}, m)
			if err == nil && !st.Failed {
				err = fmt.Errorf("expected a case-1 failure")
			}
			return gxLine(vals, st), err
		})
	}

	// Wide rows and co-hosted mirrors: at 100 partitions a replica row is two
	// words, and at four partitions a machine a mirror can sit on its master's
	// machine and cost no network — neither of which the cases above reach.
	wide := cluster.Config{Machines: 25, PartsPerMachine: 4}
	for _, g := range digestGraphs() {
		for _, strat := range []string{"Random", "2D"} {
			a := gxAssignment(t, g, strat, wide)
			for _, md := range models {
				for _, ap := range []digestCase{pageRank10, sssp} {
					for _, mode := range modes {
						emit(fmt.Sprintf("gas@25x4/%s/%s/%s/%s/%s", g.Name, strat, md.name, mode.name, ap.name), func(w int) (string, error) {
							vals, st, err := ap.gas(mode.mode, a, wide, md.m, w)
							return gasLine(vals, st), err
						})
					}
					emit(fmt.Sprintf("graphx@25x4/%s/%s/%s/%s", g.Name, strat, md.name, ap.name), func(w int) (string, error) {
						vals, st, err := ap.gx(a, graphx.Config{Cluster: wide, Workers: w}, md.m)
						return gxLine(vals, st), err
					})
				}
			}
		}
	}

	path := filepath.Join("testdata", "stats.digest")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(buf.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("digest has %d lines, want %d", len(gotLines), len(wantLines))
	}
	shown := 0
	for i := 0; i < len(wantLines) && i < len(gotLines) && shown < 10; i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}
