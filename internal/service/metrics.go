package service

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
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
	cells := make([]report.Cell, 0, 7*len(m.ops)+4)
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

// metricsReply is GET /v1/metrics's reply: the cells appended byte for
// byte as encodeReply writes map[string]any{"cells": cells}, without
// reflection (TestMetricsReplyMatchesEncoder holds the two equal). Every
// value must be finite, as MetricsCells makes them.
type metricsReply []report.Cell

func (m metricsReply) appendTo(dst []byte) []byte {
	dst = append(dst, "{\n  \"cells\": "...)
	switch {
	case m == nil:
		return append(dst, "null\n}"...)
	case len(m) == 0:
		return append(dst, "[]\n}"...)
	}
	dst = append(dst, '[')
	for i, c := range m {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"dims\": "...)
		dst = appendDims(dst, c.Dims)
		dst = append(dst, ",\n      \"metric\": "...)
		dst = appendJSONString(dst, c.Metric)
		dst = append(dst, ",\n      \"value\": "...)
		dst = appendJSONFloat(dst, c.Value)
		if c.Unit != "" {
			dst = append(dst, ",\n      \"unit\": "...)
			dst = appendJSONString(dst, c.Unit)
		}
		dst = append(dst, "\n    }"...)
	}
	return append(dst, "\n  ]\n}"...)
}

// appendDims appends a cell's dims at metricsReply's depth: the non-empty
// fields in report.Dims's order, {} when there are none.
func appendDims(dst []byte, d report.Dims) []byte {
	dst = append(dst, '{')
	empty := true
	key := func(k string) {
		if !empty {
			dst = append(dst, ',')
		}
		empty = false
		dst = append(dst, "\n        \""...)
		dst = append(dst, k...)
		dst = append(dst, "\": "...)
	}
	str := func(k, v string) {
		if v != "" {
			key(k)
			dst = appendJSONString(dst, v)
		}
	}
	str("dataset", d.Dataset)
	str("strategy", d.Strategy)
	str("app", d.App)
	str("engine", d.Engine)
	str("cluster", d.Cluster)
	if d.Parts != 0 {
		key("parts")
		dst = strconv.AppendInt(dst, int64(d.Parts), 10)
	}
	str("variant", d.Variant)
	if empty {
		return append(dst, '}')
	}
	return append(dst, "\n      }"...)
}

// appendJSONString appends s quoted as json.Marshal writes it: printable
// ASCII that json leaves alone is copied, any other string is Marshal's.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f as json.Marshal writes a float64
// (FuzzAppendJSONFloat holds the two equal): the shortest 'f' form, or
// 'e' outside [1e-6, 1e21) with a two-digit negative exponent's leading
// zero dropped (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
