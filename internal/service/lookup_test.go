package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphpart/internal/graph"
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
// cached reply bytes and a deadline armed only for a wait take 8.
func TestWarmLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/assignment/road-ca/Grid?parts=4&vertex=7", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d (%s)", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	t.Logf("%.0f allocations per lookup", allocs)
	if allocs > 8 {
		t.Errorf("a warm vertex lookup allocates %.0f times, want at most 8", allocs)
	}
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
