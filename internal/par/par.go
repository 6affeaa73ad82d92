// Package par is the repository's one fan-out: every layer that splits a
// work list across goroutines — the v2 .csrg block decode, materialized
// ingress, the engines' superstep phases, the experiment runner — does it
// through Do, sizes the pieces with Range and resolves its worker option
// with Workers. Sequential execution is Do at one worker, the same code
// path rather than a second implementation, so a change to how work is
// shared (or to how many workers a small work list deserves) has one site.
//
// par decides which goroutine evaluates a shard and nothing else: callers
// choose the shard count from the work alone, keep per-shard (or
// per-worker) scratch, and merge it in shard order, which is what makes
// their results independent of the worker count. Long-lived goroutines
// that form a pipeline rather than a fan-out (the stream builder's
// consumers) are not par's business.
//
// par is also the repository's one compute-once cache: the loaded datasets,
// the bench's assignments and measured points, and the service's
// assignments and manifests are each an OnceMap, so how concurrent callers
// share a computation, what a failed one leaves behind and how a waiter
// gives up are decided here and nowhere else (no other non-test file holds
// a sync.Once). Mutable state that is not a cache — the service's live
// churn streams — is not an OnceMap.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n ≤ 0 means GOMAXPROCS. This is
// the only core-count read under internal/; it may change wall-clock,
// never a result.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Range returns shard s's half-open item range [lo, hi) of an n-item list
// split into shards contiguous pieces; the pieces tile [0, n) in shard
// order.
func Range(n, shards, s int) (lo, hi int) {
	return n * s / shards, n * (s + 1) / shards
}

// Do evaluates fn(shard, worker) exactly once for every shard in
// [0, shards) on up to workers goroutines and returns when all are done.
// Workers pull shards from a shared counter, so a skewed shard cannot
// serialize the call behind a static block assignment; worker ids are
// dense in [0, min(workers, shards)), for indexing per-worker scratch.
// With one worker or one shard everything runs inline on the calling
// goroutine as worker 0, in shard order.
func Do(workers, shards int, fn func(shard, worker int)) {
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(s, w)
			}
		}(w)
	}
	wg.Wait()
}

// OnceMap computes one value per key, at most once at a time, and keeps
// it: callers racing for a key share one computation instead of each
// repeating it, and later callers get the stored value. Values are shared,
// so callers must not mutate them. The zero OnceMap is empty and ready.
type OnceMap[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*onceEntry[V]
}

// onceEntry is one computation, running or finished; done closes when v
// and err are set.
type onceEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Get returns key's value, starting compute on a goroutine of its own when
// the key has no entry. A finished entry answers before ctx is looked at,
// so a cached value is never refused for an expired ctx. Any other caller
// waits for the entry or for its own ctx, whichever is first; a caller
// that gives up gets ctx.Err() while the computation runs on, so its value
// still lands for the next caller. A failed computation is dropped before
// its waiters wake: each of them sees the error, and the next Get computes
// afresh.
func (m *OnceMap[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		if m.entries == nil {
			m.entries = map[K]*onceEntry[V]{}
		}
		e = &onceEntry[V]{done: make(chan struct{})}
		m.entries[key] = e
		go func() {
			defer close(e.done)
			if e.v, e.err = compute(); e.err != nil {
				// The entry is still key's: only an absent key gets a new one.
				m.mu.Lock()
				delete(m.entries, key)
				m.mu.Unlock()
			}
		}()
	}
	m.mu.Unlock()
	select {
	case <-e.done:
		return e.v, e.err
	default:
	}
	select {
	case <-e.done:
		return e.v, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Ready returns key's value when its computation has finished and
// succeeded, without starting one or waiting for one: a caller that would
// have to arm a deadline to wait does so only when Ready says no.
func (m *OnceMap[K, V]) Ready(key K) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			return e.v, e.err == nil
		default:
		}
	}
	var zero V
	return zero, false
}
