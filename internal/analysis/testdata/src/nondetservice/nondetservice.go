// Package service (fixture) exercises nondet rule 2: service is the
// sanctioned timing package, so time.Now is legal — but a nondeterministic
// call embedded directly in a report.Cell Value is flagged, keeping every
// wall-clock cell auditable at the measurement site.
package service

import (
	"time"

	"graphpart/internal/report"
)

func goodMeasuredCell(f func()) report.Cell {
	start := time.Now() // sanctioned: service measures latency by design
	f()
	elapsed := time.Since(start).Seconds()
	return report.Cell{Metric: "wall-s", Value: elapsed}
}

func badInlineCell(f func()) report.Cell {
	start := time.Now()
	f()
	return report.Cell{Metric: "wall-s", Value: time.Since(start).Seconds()} // want `time.Since embedded directly in a report.Cell Value`
}

func goodDerivedCell(elapsed float64) report.Cell {
	return report.Cell{Metric: "wall-s", Value: elapsed * 1000}
}
