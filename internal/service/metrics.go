package service

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"graphpart/internal/report"
)

// endpointStats is one operation's counters. Everything is atomic so the
// hot request path never takes a lock.
type endpointStats struct {
	requests   atomic.Int64
	clientErrs atomic.Int64 // 4xx responses
	serverErrs atomic.Int64 // 5xx responses
	inflight   atomic.Int64
	latencyNs  atomic.Int64 // summed across requests
	maxNs      atomic.Int64
}

func (e *endpointStats) observe(status int, d time.Duration) {
	e.requests.Add(1)
	switch {
	case status >= 500:
		e.serverErrs.Add(1)
	case status >= 400:
		e.clientErrs.Add(1)
	}
	ns := d.Nanoseconds()
	e.latencyNs.Add(ns)
	for {
		cur := e.maxNs.Load()
		if ns <= cur || e.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// opStats is one registered operation and its counters.
type opStats struct {
	op string
	*endpointStats
}

// metricsRegistry holds per-endpoint counters. Operations are registered
// at route time only, before the server takes traffic, and kept sorted by
// name there — so a scrape walks a fixed slice with no lock and no sort.
type metricsRegistry struct {
	ops   []opStats
	start time.Time
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{start: time.Now()}
}

// register creates the named operation's counters; idempotent.
func (m *metricsRegistry) register(op string) *endpointStats {
	i, found := slices.BinarySearchFunc(m.ops, op, func(o opStats, op string) int { return strings.Compare(o.op, op) })
	if !found {
		m.ops = slices.Insert(m.ops, i, opStats{op, &endpointStats{}})
	}
	return m.ops[i].endpointStats
}

// MetricsCells exports every operation's counters in the report.Cell
// schema: the operation name in Dims.Variant, one cell per metric, plus
// server-wide totals. Operations are emitted in sorted order so the
// output is stable for a given traffic history.
func (s *Server) MetricsCells() []report.Cell {
	m := s.met
	uptime := time.Since(m.start).Seconds()
	if uptime <= 0 {
		uptime = 1e-9
	}
	var cells []report.Cell
	cell := func(op, metric string, v float64, unit string) {
		cells = append(cells, report.Cell{Dims: report.Dims{Variant: op}, Metric: metric, Value: v, Unit: unit})
	}
	var totalReq, totalErr int64
	for _, e := range m.ops {
		op := e.op
		req := e.requests.Load()
		ce, se := e.clientErrs.Load(), e.serverErrs.Load()
		totalReq += req
		totalErr += ce + se
		meanMs := 0.0
		if req > 0 {
			meanMs = float64(e.latencyNs.Load()) / float64(req) / 1e6
		}
		maxMs := float64(e.maxNs.Load()) / 1e6
		qps := float64(req) / uptime
		cell(op, "requests", float64(req), "req")
		cell(op, "client-errors", float64(ce), "req")
		cell(op, "server-errors", float64(se), "req")
		cell(op, "inflight", float64(e.inflight.Load()), "req")
		cell(op, "latency-mean-ms", meanMs, "ms")
		cell(op, "latency-max-ms", maxMs, "ms")
		cell(op, "throughput", qps, "req/s")
	}
	totalQPS := float64(totalReq) / uptime
	cell("", "uptime", uptime, "s")
	cell("", "requests", float64(totalReq), "req")
	cell("", "errors", float64(totalErr), "req")
	cell("", "throughput", totalQPS, "req/s")
	return cells
}
