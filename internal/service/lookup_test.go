package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// TestAssignmentReplyMatchesEncoder: a warm assignment reply, served from
// the bytes the build encoded once with a vertex appended by strconv, is
// byte for byte what respond's encode step makes of the whole
// assignmentResponse — for every vertex of road-ca under 2D, Grid and HDRF,
// and for the summary without a vertex.
func TestAssignmentReplyMatchesEncoder(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	get := func(path string) []byte {
		rec.Body.Reset()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, strategy := range []string{"2D", "Grid", "HDRF"} {
		path := "/v1/assignment/road-ca/" + strategy + "?parts=16"
		get(path) // builds the assignment
		c, ok := srv.assignments.Ready(cutKey{"road-ca", strategy, 16})
		if !ok {
			t.Fatalf("%s: no finished cache entry after a 200", strategy)
		}
		a := c.v
		want := assignmentResponse{
			Dataset: "road-ca", Strategy: strategy, Parts: 16,
			Edges:             int64(a.G.NumEdges()),
			Vertices:          a.G.NumVertices(),
			ReplicationFactor: a.ReplicationFactor(),
			EdgeBalance:       a.EdgeBalance(),
		}
		encode := func(v assignmentResponse) string {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return string(indentJSON(nil, b)) + "\n"
		}
		if got := string(get(path)); got != encode(want) {
			t.Fatalf("%s summary:\n got %s\nwant %s", strategy, got, encode(want))
		}
		for v := range graph.VertexID(a.G.NumVertices()) {
			want.Vertex = &vertexLookup{ID: v, Master: a.Master(v), Replicas: a.Replicas(v)}
			if got := string(get(fmt.Sprintf("%s&vertex=%d", path, v))); got != encode(want) {
				t.Fatalf("%s vertex %d:\n got %s\nwant %s", strategy, v, got, encode(want))
			}
		}
	}
}

// TestServedCutIsTheBenchs: an in-process Server with no options serves the
// Hybrid and H-Ginger the library builds with no options, at the
// replication factor the committed seed-1 report measured for that cell, so
// the service, partitiond and the bench split vertices at one high-degree
// cutoff. livejournal has vertices on both sides of it; road-ca has none
// above it.
func TestServedCutIsTheBenchs(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCH_seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := report.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	const seed, parts = 1, 16
	srv := newTestServer(t, Config{Seed: seed})
	for _, c := range []struct{ dataset, strategy string }{
		{"livejournal", "Hybrid"},
		{"livejournal", "H-Ginger"},
		{"road-ca", "Hybrid"},
	} {
		rec := do(srv, http.MethodGet, fmt.Sprintf("/v1/assignment/%s/%s?parts=%d", c.dataset, c.strategy, parts), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/%s: status %d (%s)", c.dataset, c.strategy, rec.Code, rec.Body)
		}
		var served assignmentResponse
		decodeBodyJSON(t, rec, &served)

		g, err := datasets.Load(c.dataset, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := partition.ParallelPartition(g, partition.MustNew(c.strategy, partition.Options{}), parts, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := a.ReplicationFactor(); served.ReplicationFactor != want {
			t.Errorf("%s/%s/%d: served RF %.4f, the library's default cut %.4f", c.dataset, c.strategy, parts, served.ReplicationFactor, want)
		}
		measured := math.NaN()
		for _, e := range base.Experiments {
			for _, cell := range e.Cells {
				if e.ID == "fig6.5" && cell.Metric == "replication-factor" && cell.Dims.Dataset == c.dataset &&
					cell.Dims.Strategy == c.strategy && cell.Dims.Parts == parts {
					measured = cell.Value
				}
			}
		}
		if served.ReplicationFactor != measured {
			t.Errorf("%s/%s/%d: served RF %.4f, the bench measured %.4f", c.dataset, c.strategy, parts, served.ReplicationFactor, measured)
		}
	}
}

// TestWarmHitsNeverTimeOut: a request answered from a finished cache entry
// arms no deadline, so it answers 200 however short RequestTimeout is. At
// a 1 ns timeout about half of these lookups used to answer 504, the
// deadline's timer racing the finished entry.
func TestWarmHitsNeverTimeOut(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	if _, err := srv.assignment(context.Background(), time.Time{}, cutKey{"road-ca", "Grid", 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.manifest(context.Background(), time.Time{}, "road-ca"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/assignment/road-ca/Grid?parts=4&vertex=7", "/v1/datasets/road-ca"} {
		ok := 0
		for range 2000 {
			if do(srv, http.MethodGet, path, "").Code == http.StatusOK {
				ok++
			}
		}
		if ok != 2000 {
			t.Errorf("%s: %d of 2000 warm requests answered 200", path, ok)
		}
	}
}

// TestWarmLookupAllocations: a warm vertex lookup's allocation count
// through Handler() is the read path's cost contract. Encoding the reply
// by reflection per request and arming a deadline timer took 16; the
// cached reply bytes and a deadline armed only for a wait took 8; reading
// the query without a url.Values map, and the strategy name without
// building a strategy (HDRF's allocated), took 4; a shared Content-Type
// value instead of Header().Set's fresh slice took 3; appending the vertex
// into a pooled reply buffer instead of boxing a vertexReply in any takes 2.
func TestWarmLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	for _, strategy := range []string{"Grid", "HDRF"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/assignment/road-ca/"+strategy+"?parts=4&vertex=7", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s warm-up status = %d (%s)", strategy, rec.Code, rec.Body)
		}
		allocs := testing.AllocsPerRun(100, func() {
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		})
		t.Logf("%s: %.0f allocations per lookup", strategy, allocs)
		if allocs > 2 {
			t.Errorf("a warm %s vertex lookup allocates %.0f times, want at most 2", strategy, allocs)
		}
	}
}

// FuzzQueryValue: queryValue reads a parameter as url.ParseQuery then
// Values.Get do, for any raw query and key — a ';' segment skipped, a
// segment that fails to unescape skipped, '+' a space, the first value
// winning.
func FuzzQueryValue(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"a;b=1&parts=4", "parts"},
		{"a;b=1&parts=4", "a"},
		{"parts=1;x&parts=4", "parts"},
		{"%zz=1&parts=2", "parts"},
		{"parts=1+6", "parts"},
		{"parts=16&parts=4", "parts"},
		{"=x&vertex=", "vertex"},
		{"=x&vertex=", ""},
		{"&&vertex=3", "vertex"},
		{"pa%72ts=5", "parts"},
		{"parts=%zz&parts=3", "parts"},
		{"parts", "parts"},
		{"a+b=c%20d", "a b"},
		{"", "parts"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		q, _ := url.ParseQuery(raw) // what r.URL.Query() keeps of a bad query
		if got, want := queryValue(raw, key), q.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.Values.Get = %q", raw, key, got, want)
		}
	})
}

// TestMetricsReplyMatchesEncoder: metricsReply appends byte for byte what
// respond's encode step makes of {"cells": cells} — for a server with no
// traffic, one after 2xx, 4xx and 405 traffic (whose live scrape is also
// the encoder's bytes, every value finite), and for cells that take every
// dims field and json's float and string forms.
func TestMetricsReplyMatchesEncoder(t *testing.T) {
	same := func(name string, cells []report.Cell) {
		t.Helper()
		want, err := encodeReply(nil, map[string]any{"cells": cells})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := metricsReply(cells).appendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	srv := newTestServer(t, Config{})
	same("no traffic", srv.MetricsCells())

	for _, x := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/v1/healthz", http.StatusOK},
		{http.MethodGet, "/v1/datasets", http.StatusOK},
		{http.MethodGet, "/v1/assignment/road-ca/NoSuchCut", http.StatusNotFound},
		{http.MethodGet, "/v1/assignment/road-ca/Grid?parts=x", http.StatusBadRequest},
		{http.MethodPut, "/v1/churn", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/metrics", http.StatusOK},
	} {
		if rec := do(srv, x.method, x.path, ""); rec.Code != x.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", x.method, x.path, rec.Code, x.status, rec.Body)
		}
	}
	cells := srv.MetricsCells()
	for _, c := range cells {
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			t.Errorf("%s = %v: a scrape must be finite", c.Key(), c.Value)
		}
	}
	same("mixed traffic", cells)
	rec := do(srv, http.MethodGet, "/v1/metrics", "")
	var live struct {
		Cells []report.Cell `json:"cells"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil || len(live.Cells) != len(cells) {
		t.Fatalf("live scrape: %d cells (%v), want %d", len(live.Cells), err, len(cells))
	}
	if want, _ := encodeReply(nil, map[string]any{"cells": live.Cells}); rec.Body.String() != string(want)+"\n" {
		t.Errorf("live scrape:\n got %s\nwant %s", rec.Body, want)
	}

	var edges []report.Cell
	for i, v := range []float64{0, 1e-7, 1e21, 123456789.5, -2.5e-9} {
		edges = append(edges, report.Cell{Metric: "m", Value: v, Unit: "u"})
		edges = append(edges, report.Cell{Dims: report.Dims{Dataset: "road-ca", Strategy: "HDRF", App: "PR",
			Engine: "PowerGraph", Cluster: "EC2-16", Parts: i - 2, Variant: "op"}, Metric: "rf", Value: -v})
	}
	for _, odd := range []string{"<", ">", "&", `"`, `\`, "\n", "\x7f", "é", "\u2028", "\xff"} {
		edges = append(edges, report.Cell{Dims: report.Dims{Variant: "v" + odd}, Metric: odd, Value: 1, Unit: odd + "u"})
	}
	same("edge values", edges)
	same("no cells", []report.Cell{})
	same("nil cells", nil)
}

// FuzzAppendJSONFloat: appendJSONFloat writes every finite float64 bit
// pattern as json.Marshal does.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5e-9, 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21,
		123456789.5, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1e-100, 0.1} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("x"), v); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal = %s", v, got[1:], want)
		}
	})
}

// BenchmarkAssignmentLookup prices one warm GET /v1/assignment vertex
// lookup through Handler() at the service-lookup workload's shape: a
// heavy-tailed social graph cut into 16 parts by 2D, Grid and HDRF, the
// three assignments built before the clock starts, vertices spread over
// the id space and the strategy rotating from request to request.
func BenchmarkAssignmentLookup(b *testing.B) {
	srv := New(Config{})
	b.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // no job ran
	h := srv.Handler()
	const vertices = 9000 // livejournal at scale 1
	var reqs []*http.Request
	for i := range 300 {
		strategy := []string{"2D", "Grid", "HDRF"}[i%3]
		v := uint64(i) * 2654435761 % vertices
		reqs = append(reqs, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/assignment/livejournal/%s?parts=16&vertex=%d", strategy, v), nil))
	}
	rec := httptest.NewRecorder()
	for _, req := range reqs {
		rec.Body.Reset()
		if h.ServeHTTP(rec, req); rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", req.URL, rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rec.Body.Reset()
		h.ServeHTTP(rec, reqs[i%len(reqs)])
	}
}

// BenchmarkMetricsScrape prices one GET /v1/metrics through Handler(),
// every operation's counters having seen traffic.
func BenchmarkMetricsScrape(b *testing.B) {
	srv := New(Config{})
	b.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // no job ran
	for _, path := range []string{"/v1/healthz", "/v1/datasets", "/v1/assignment/road-ca/NoSuchCut", "/v1/metrics"} {
		do(srv, http.MethodGet, path, "")
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
}
