package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/graph"
)

// registerGatedDataset registers a dataset whose builder blocks until the
// returned gate is closed, counting builds. Registration is global and
// permanent, so every test uses a unique name.
func registerGatedDataset(t *testing.T, name string) (gate chan struct{}, builds *atomic.Int32) {
	t.Helper()
	gate = make(chan struct{})
	builds = &atomic.Int32{}
	err := datasets.Register(datasets.Info{Name: name, Kind: datasets.SyntheticRoad, Class: graph.LowDegree},
		func(int) (*graph.Graph, error) {
			builds.Add(1)
			<-gate
			return graph.FromEdges(name, []graph.Edge{
				{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
			}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return gate, builds
}

// TestSingleflightAssignment is the regression test for the cache
// contract: two concurrent requests for the same (dataset, strategy,
// parts) trigger exactly one dataset build and one partitioning.
func TestSingleflightAssignment(t *testing.T) {
	gate, builds := registerGatedDataset(t, "svc-singleflight")
	srv := newTestServer(t, Config{})

	const url = "/v1/assignment/svc-singleflight/Random?parts=2"
	var wg sync.WaitGroup
	bodies := make([]string, 2)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(srv, http.MethodGet, url, "")
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: %d (%s)", i, rec.Code, rec.Body)
				return
			}
			bodies[i] = rec.Body.String()
		}(i)
	}
	// Let both requests reach the singleflight entry before the build can
	// finish; the second must join the first's computation, not start its
	// own.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if t.Failed() {
		return
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("concurrent requests disagree:\n%s\n%s", bodies[0], bodies[1])
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("dataset builder ran %d times, want 1", n)
	}
	if n := srv.AssignmentBuilds(); n != 1 {
		t.Fatalf("server computed %d partitionings, want 1", n)
	}
	// A later request for the same key is a pure cache hit.
	if rec := do(srv, http.MethodGet, url, ""); rec.Code != http.StatusOK || rec.Body.String() != bodies[0] {
		t.Fatalf("cache hit diverged: %d (%s)", rec.Code, rec.Body)
	}
	if n := srv.AssignmentBuilds(); n != 1 {
		t.Fatalf("cache hit triggered a rebuild: %d builds", n)
	}
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainStarted reports whether Shutdown has begun.
func (s *Server) drainStarted() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// TestTimedOutBuildLandsInTheCache pins the async contract of the one
// build path: a cold GET /v1/assignment whose wait ends answers 504, its
// build runs on, and once the build is done the next GET answers 200 from
// the cache without a second build.
func TestTimedOutBuildLandsInTheCache(t *testing.T) {
	gate, builds := registerGatedDataset(t, "svc-async")
	srv := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})

	const url = "/v1/assignment/svc-async/Random?parts=2"
	wantError(t, do(srv, http.MethodGet, url, ""), http.StatusGatewayTimeout)
	close(gate)
	eventually(t, "the timed-out build finishing", func() bool {
		_, ok := srv.assignments.Ready(cutKey{"svc-async", "Random", 2})
		return ok
	})
	if rec := do(srv, http.MethodGet, url, ""); rec.Code != http.StatusOK {
		t.Fatalf("GET after the build: %d (%s), want 200", rec.Code, rec.Body)
	}
	if n := srv.AssignmentBuilds(); n != 1 {
		t.Fatalf("server computed %d partitionings, want 1", n)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("dataset builder ran %d times, want 1", n)
	}
}

// TestGracefulShutdown drives the drain contract: a build running when
// Shutdown begins completes and its waiter gets 200, a cold build asked
// for during the drain answers 503 ErrDraining in the error envelope, the
// drain waits for the running build, and afterwards the drained build is
// served from the cache.
func TestGracefulShutdown(t *testing.T) {
	gate, builds := registerGatedDataset(t, "svc-drain")
	srv := newTestServer(t, Config{})

	const held = "/v1/assignment/svc-drain/Random?parts=2"
	waiter := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiter <- do(srv, http.MethodGet, held, "") }()
	eventually(t, "the held build starting", func() bool { return builds.Load() == 1 })

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- srv.Shutdown(ctx)
	}()
	eventually(t, "the drain starting", srv.drainStarted)

	e := wantError(t, do(srv, http.MethodGet, "/v1/assignment/svc-drain/Random?parts=3", ""), http.StatusServiceUnavailable)
	if e.Error != ErrDraining.Error() {
		t.Fatalf("cold build during the drain: %q, want %q", e.Error, ErrDraining)
	}
	select {
	case err := <-drainErr:
		t.Fatalf("the drain returned (%v) while a build was running", err)
	default:
	}

	close(gate) // let the running build finish
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rec := <-waiter; rec.Code != http.StatusOK {
		t.Fatalf("the running build's waiter: %d (%s), want 200", rec.Code, rec.Body)
	}
	if rec := do(srv, http.MethodGet, held+"&vertex=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("cached lookup after the drain: %d (%s), want 200", rec.Code, rec.Body)
	}
	if n := srv.AssignmentBuilds(); n != 1 {
		t.Fatalf("server computed %d partitionings, want 1", n)
	}
}

// TestShutdownDeadline pins the timeout path: a drain whose running build
// never finishes returns the context error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	gate, builds := registerGatedDataset(t, "svc-drain-deadline")
	srv := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	defer close(gate) // let the build finish before the cleanup drain

	wantError(t, do(srv, http.MethodGet, "/v1/assignment/svc-drain-deadline/Random?parts=2", ""), http.StatusGatewayTimeout)
	eventually(t, "the build starting", func() bool { return builds.Load() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain of a stuck build = %v, want the context's deadline", err)
	}
}
