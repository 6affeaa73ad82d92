// Package service is the resident partition-as-a-service layer: an
// HTTP/JSON server that keeps registered datasets loaded in memory,
// serves assignment lookups and manifest stats, applies churn batches to
// live partition.PartitionState streams, and answers advisor queries from a
// warm in-memory advisor.Model refittable from uploaded benchrunner reports.
//
// Everything the one-shot CLIs do once per process, the service does
// concurrently and repeatedly. Every endpoint is a handler that returns a
// value or an error, mounted behind one wrapper (Server.handle) that owns
// the method check, the request deadline, the body cap, the counters
// exported in the report.Cell schema at GET /v1/metrics, the JSON encode
// and the error→status mapping. Dataset builds, partitionings and
// manifests are each computed once per key by a par.OnceMap (two
// concurrent requests for the same assignment share one computation, and
// one that outlives its request still lands in the cache); a cached
// partitioning or manifest carries its reply bytes, encoded once by the
// build, and a request arms its deadline only to wait on a build. That
// cache is the one build path: a request whose wait ends answers 504 while
// its build runs on into the cache. Churn streams are mutable state behind
// per-stream locks. Shutdown is graceful: running builds complete, and a
// build asked for after it began gets ErrDraining.
//
// The API is documented in docs/SERVICE.md; cmd/partitiond is the daemon
// binary and TestConcurrentBattery load-tests an in-process instance.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphpart/internal/advisor"
	"graphpart/internal/datasets"
	"graphpart/internal/par"
	"graphpart/internal/partition"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for test-scale datasets.
type Config struct {
	// Scale is the dataset scale factor every load/build uses (≤0 = 1).
	Scale int
	// Seed is the partitioner hash seed. The zero value is seed 0;
	// partitiond and the bench default to seed 1, so set 1 to serve their
	// assignments.
	Seed uint64
	// Workers bounds partitioning/ingress goroutines (≤0 = GOMAXPROCS).
	Workers int
	// DefaultParts is the partition count used when a request names none
	// (≤0 = 16).
	DefaultParts int
	// RequestTimeout bounds each request's wait on a cache build, counted
	// from its arrival; expired requests get 504 while the underlying
	// computation keeps warming the cache, and a request answered from a
	// finished entry never waits (≤0 = 30s).
	RequestTimeout time.Duration
	// MaxBody caps request body bytes; larger bodies get 413 (≤0 = 8 MiB).
	MaxBody int64
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

func (c Config) defaultParts() int {
	if c.DefaultParts < 1 {
		return 16
	}
	return c.DefaultParts
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return c.RequestTimeout
}

func (c Config) maxBody() int64 {
	if c.MaxBody <= 0 {
		return 8 << 20
	}
	return c.MaxBody
}

// maxParts bounds requested partition counts; the bit-matrix bookkeeping
// is O(|V|·parts/8) bytes, so an absurd count is a request error, not an
// allocation.
const maxParts = 1024

// maxStateCells bounds (max vertex id + 1)·parts of a churn batch; a live
// stream's reference counts are O(|V|·parts) int32s, so an absurd product
// is a request error, not an allocation.
const maxStateCells = 1 << 26

// Server is one resident service instance. Create it with New, mount
// Handler on an http.Server (or httptest), and Shutdown when done.
type Server struct {
	cfg Config
	mux *http.ServeMux
	met *metricsRegistry

	strategies []string // partition.AllNames(), sorted: Server.key's name check

	// The two caches: a partitioning per key and a measured manifest per
	// dataset, each computed once however many requests race for it, and
	// each with the reply that serves it.
	assignments par.OnceMap[cutKey, entry[*partition.Assignment]]
	manifests   par.OnceMap[string, entry[datasets.Manifest]]
	builds      atomic.Int64 // completed assignment builds (singleflight audit)

	stMu   sync.Mutex
	states map[cutKey]*liveState

	// The drain: once draining is set build starts nothing, and Shutdown
	// waits on running for the builds that started before.
	drainMu  sync.Mutex
	draining bool
	running  sync.WaitGroup

	advMu sync.RWMutex
	model *advisor.Model
}

// ErrDraining refuses a build asked for after Shutdown began (503).
var ErrDraining = errors.New("service: server draining; not starting builds")

// New builds a Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		met:        newMetricsRegistry(),
		strategies: partition.AllNames(),
		states:     map[cutKey]*liveState{},
	}
	s.routes()
	return s
}

// Handler returns the instrumented HTTP handler for the whole API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: running assignment builds complete, and a
// build asked for later fails with ErrDraining. It returns ctx.Err() when
// the drain outlives the context. The HTTP listener is the caller's to
// close (http.Server.Shutdown); handlers for already-accepted requests
// keep working during and after the drain, answering from the caches.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}

// AssignmentBuilds reports how many partitionings the server has actually
// computed — the singleflight regression tests pin this against the
// number of distinct (dataset, strategy, parts) keys requested.
func (s *Server) AssignmentBuilds() int64 { return s.builds.Load() }

// cutKey names one partitioning — of a registered dataset (assignments)
// or of a live churn stream — under a strategy at a partition count.
type cutKey struct {
	name     string
	strategy string
	parts    int
}

// key is the one place a request's (name, strategy, parts) is parsed,
// defaulted and validated. parts is the number as the request spells it,
// "" when it names none; an empty stream name is the stream "default".
func (s *Server) key(dataset bool, name, strategy, parts string) (cutKey, error) {
	if dataset {
		if err := knownDataset(name); err != nil {
			return cutKey{}, err
		}
	} else if name == "" {
		name = "default"
	}
	if _, found := slices.BinarySearch(s.strategies, strategy); !found {
		// Only a miss builds a strategy, so the 404 text is New's own.
		if _, err := partition.New(strategy, partition.Options{}); err != nil {
			return cutKey{}, statusError{http.StatusNotFound, err.Error()}
		}
	}
	n, err := queryInt("parts", parts, s.cfg.defaultParts())
	if err != nil {
		return cutKey{}, err
	}
	if n < 1 || n > maxParts {
		return cutKey{}, statusErrorf(http.StatusBadRequest, "service: parts must be in [1, %d], got %d", maxParts, n)
	}
	return cutKey{name, strategy, n}, nil
}

// newStrategy builds k's strategy where a (strategy, parts) pair is first
// built — a cache miss or a new stream; never a cache hit.
// A partition count the strategy itself refuses (Grid's perfect square,
// PDS's p²+p+1) is the client's error: 400 with the strategy's message,
// before any dataset is loaded or state allocated.
func (s *Server) newStrategy(k cutKey) (partition.Strategy, error) {
	st, err := partition.New(k.strategy, partition.Options{})
	if err != nil {
		return nil, err
	}
	if sl, ok := st.(partition.StatelessStrategy); ok {
		if _, err := sl.NewAssigner(k.parts, s.cfg.Seed); err != nil {
			return nil, statusError{http.StatusBadRequest, err.Error()}
		}
	}
	return st, nil
}

// entry is a cached value with its reply: the bytes respond's encode step
// writes for it, or the error that step gave, made once by the build that
// made the value, so a warm read neither reflects nor indents.
type entry[V any] struct {
	v     V
	reply encoded
	err   error
}

func newEntry[V any](v V, reply any) entry[V] {
	b, err := encodeReply(nil, reply)
	return entry[V]{v, b, err}
}

// waitUntil arms a request's deadline on ctx for a wait on a build that has
// not finished; the zero deadline is none. A finished entry is read with
// OnceMap.Ready first, so a warm hit arms nothing and never answers 504.
func waitUntil(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}

// assignment returns the partitioning for the key with its summary reply,
// computing them at most once per key across all concurrent requesters.
// When the wait ends first the caller gets ctx.Err() but the computation
// is not abandoned: it lands in the cache for the next request.
func (s *Server) assignment(ctx context.Context, deadline time.Time, k cutKey) (entry[*partition.Assignment], error) {
	if c, ok := s.assignments.Ready(k); ok {
		return c, nil
	}
	ctx, cancel := waitUntil(ctx, deadline)
	defer cancel()
	c, err := s.assignments.Get(ctx, k, func() (entry[*partition.Assignment], error) { return s.build(k) })
	if err != nil && err == ctx.Err() { // Get returns it bare
		err = fmt.Errorf("service: partitioning %s/%s/%d: %w", k.name, k.strategy, k.parts, err)
	}
	return c, err
}

// build partitions k's dataset and encodes the assignment's summary, the
// reply of GET /v1/assignment without a vertex. Once Shutdown began it
// loads and partitions nothing and fails with ErrDraining, which the cache
// drops; a pair the strategy refuses is the client's error before that.
func (s *Server) build(k cutKey) (entry[*partition.Assignment], error) {
	st, err := s.newStrategy(k)
	if err != nil {
		return entry[*partition.Assignment]{}, err
	}
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return entry[*partition.Assignment]{}, ErrDraining
	}
	s.running.Add(1)
	s.drainMu.Unlock()
	defer s.running.Done()
	g, err := datasets.Load(k.name, s.cfg.scale())
	if err != nil {
		return entry[*partition.Assignment]{}, err
	}
	a, err := partition.ParallelPartition(g, st, k.parts, s.cfg.Seed, s.cfg.Workers)
	if err != nil {
		return entry[*partition.Assignment]{}, err
	}
	s.builds.Add(1)
	return newEntry(a, assignmentResponse{
		Dataset: k.name, Strategy: k.strategy, Parts: k.parts,
		Edges:             int64(a.G.NumEdges()),
		Vertices:          a.G.NumVertices(),
		ReplicationFactor: a.ReplicationFactor(),
		EdgeBalance:       a.EdgeBalance(),
	}), nil
}

// manifest measures (once per dataset at the server's scale) the manifest
// the advisor features come from, with its reply.
func (s *Server) manifest(ctx context.Context, deadline time.Time, name string) (entry[datasets.Manifest], error) {
	if m, ok := s.manifests.Ready(name); ok {
		return m, nil
	}
	ctx, cancel := waitUntil(ctx, deadline)
	defer cancel()
	return s.manifests.Get(ctx, name, func() (entry[datasets.Manifest], error) {
		m, err := datasets.BuildManifest(name, s.cfg.scale())
		if err != nil {
			return entry[datasets.Manifest]{}, err
		}
		return newEntry(m, m), nil
	})
}

// --- live churn streams -------------------------------------------------

// liveState is one mutable partitioning under churn. The PartitionState
// is single-goroutine by contract; mu serializes the service's
// concurrently arriving batches in arrival order.
type liveState struct {
	mu sync.Mutex
	st *partition.PartitionState
}

// state returns the stream's live state; create makes a missing one (POST)
// where a read (GET) answers 404. A greedy stream places edges with one
// persistent loader (AsIncremental's loader 0) whatever Options.Loaders
// says, and the multi-pass strategies that rebuild ignore it.
func (s *Server) state(k cutKey, create bool) (*liveState, error) {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	if ls, ok := s.states[k]; ok {
		return ls, nil
	}
	if !create {
		return nil, statusErrorf(http.StatusNotFound, "service: no live stream %q for %s/%d", k.name, k.strategy, k.parts)
	}
	st, err := s.newStrategy(k)
	if err != nil {
		return nil, err
	}
	ps, err := partition.NewPartitionState(st, k.parts, s.cfg.Seed, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	ls := &liveState{st: ps}
	s.states[k] = ls
	return ls, nil
}
