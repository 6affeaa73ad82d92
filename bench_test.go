// Package-level benchmarks: one per table and figure in the paper's
// evaluation (see docs/EXPERIMENTS.md for the index). Each benchmark
// regenerates the corresponding experiment on the simulated cluster and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Shape assertions (who wins, directions
// of correlations) live in shape_test.go; benchmarks only measure.
//
// internal/bench caches assignments and measured points for the life of
// the process, so only a benchmark's first iteration partitions and
// simulates; later iterations (and later benchmarks sharing those points)
// time a warm cache. Read ns/op at -benchtime=1x for the cold cost.
package main

import (
	"testing"

	"graphpart/internal/bench"
)

// runExperiment executes a registered experiment once per benchmark
// iteration and reports how many of its structured checks reproduced.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.DefaultConfig()
	var good, bad int
	for i := 0; i < b.N; i++ {
		r, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		good, bad = 0, 0
		for _, c := range r.Checks {
			if c.Pass {
				good++
			} else {
				bad++
			}
		}
	}
	b.ReportMetric(float64(good), "shapes-ok")
	b.ReportMetric(float64(bad), "shapes-missed")
}

func BenchmarkFig5_3NetIOvsRF(b *testing.B)            { runExperiment(b, "fig5.3") }
func BenchmarkFig5_4ComputeVsRF(b *testing.B)          { runExperiment(b, "fig5.4") }
func BenchmarkFig5_5MemoryVsRF(b *testing.B)           { runExperiment(b, "fig5.5") }
func BenchmarkFig5_6ReplicationFactors(b *testing.B)   { runExperiment(b, "fig5.6") }
func BenchmarkFig5_7IngressTimes(b *testing.B)         { runExperiment(b, "fig5.7") }
func BenchmarkFig5_8DegreeDistributions(b *testing.B)  { runExperiment(b, "fig5.8") }
func BenchmarkTable5_1GridVsHDRF(b *testing.B)         { runExperiment(b, "tab5.1") }
func BenchmarkFig6_1LyraNetIOvsRF(b *testing.B)        { runExperiment(b, "fig6.1") }
func BenchmarkFig6_2LyraMemoryVsRF(b *testing.B)       { runExperiment(b, "fig6.2") }
func BenchmarkFig6_3MemoryTimeline(b *testing.B)       { runExperiment(b, "fig6.3") }
func BenchmarkFig6_4LyraIngress(b *testing.B)          { runExperiment(b, "fig6.4") }
func BenchmarkFig6_5LyraRF(b *testing.B)               { runExperiment(b, "fig6.5") }
func BenchmarkFig6_6HybridSynergy(b *testing.B)        { runExperiment(b, "fig6.6") }
func BenchmarkFig7_1GraphXPageRank(b *testing.B)       { runExperiment(b, "fig7.1") }
func BenchmarkTable7_1GraphXRankings(b *testing.B)     { runExperiment(b, "tab7.1") }
func BenchmarkFig8_1AllStrategiesRF(b *testing.B)      { runExperiment(b, "fig8.1") }
func BenchmarkFig8_2AllStrategiesIngress(b *testing.B) { runExperiment(b, "fig8.2") }
func BenchmarkFig8_3OneDTarget(b *testing.B)           { runExperiment(b, "fig8.3") }
func BenchmarkFig8_4CPUUtilization(b *testing.B)       { runExperiment(b, "fig8.4") }
func BenchmarkFig9_1GraphXIterationsRoad(b *testing.B) { runExperiment(b, "fig9.1") }
func BenchmarkFig9_2GraphXIterationsLJ(b *testing.B)   { runExperiment(b, "fig9.2") }
func BenchmarkFig9_4ExecutorMemory(b *testing.B)       { runExperiment(b, "fig9.4") }
func BenchmarkTable1_1Inventory(b *testing.B)          { runExperiment(b, "tab1.1") }

// Ablation benchmarks (design-choice experiments; docs/EXPERIMENTS.md).
func BenchmarkAblationHDRFLambda(b *testing.B)      { runExperiment(b, "abl.lambda") }
func BenchmarkAblationHybridThreshold(b *testing.B) { runExperiment(b, "abl.threshold") }
func BenchmarkAblationLoaders(b *testing.B)         { runExperiment(b, "abl.loaders") }
func BenchmarkAblationLocality(b *testing.B)        { runExperiment(b, "abl.locality") }
func BenchmarkAblationEngine(b *testing.B)          { runExperiment(b, "abl.engine") }

// Decision-tree validation benchmarks (Figs 5.9 and 9.3 as measured checks).
func BenchmarkFig5_9DecisionTree(b *testing.B) { runExperiment(b, "fig5.9") }
func BenchmarkFig9_3DecisionTree(b *testing.B) { runExperiment(b, "fig9.3") }
