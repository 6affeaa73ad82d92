package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	workerCounts = []int{1, 2, 3, 8}
	shardCounts  = []int{0, 1, 7, 64}
)

// TestDoRunsEveryShardOnce pins Do's contract over workers × shards: every
// shard runs exactly once and worker ids are dense in
// [0, min(workers, shards)).
func TestDoRunsEveryShardOnce(t *testing.T) {
	for _, workers := range workerCounts {
		for _, shards := range shardCounts {
			var mu sync.Mutex
			runs := make([]int, shards)
			maxWorker := -1
			Do(workers, shards, func(s, w int) {
				mu.Lock()
				defer mu.Unlock()
				runs[s]++
				maxWorker = max(maxWorker, w)
				if w < 0 {
					t.Errorf("workers=%d shards=%d: negative worker id %d", workers, shards, w)
				}
			})
			for s, n := range runs {
				if n != 1 {
					t.Errorf("workers=%d shards=%d: shard %d ran %d times", workers, shards, s, n)
				}
			}
			if limit := min(workers, shards); maxWorker >= limit {
				t.Errorf("workers=%d shards=%d: worker id %d outside [0,%d)", workers, shards, maxWorker, limit)
			}
		}
	}
}

// TestDoInlineAtOneWorkerOrOneShard: with one worker or one shard fn runs on
// the calling goroutine, in shard order, as worker 0. The append below is
// deliberately unsynchronised — under -race it fails if Do ever hands these
// shapes to another goroutine.
func TestDoInlineAtOneWorkerOrOneShard(t *testing.T) {
	for _, workers := range workerCounts {
		for _, shards := range shardCounts {
			if workers != 1 && shards > 1 {
				continue
			}
			var order []int
			Do(workers, shards, func(s, w int) {
				if w != 0 {
					t.Errorf("workers=%d shards=%d: inline shard %d ran as worker %d", workers, shards, s, w)
				}
				order = append(order, s)
			})
			if len(order) != shards {
				t.Fatalf("workers=%d shards=%d: %d shards ran", workers, shards, len(order))
			}
			for i, s := range order {
				if s != i {
					t.Errorf("workers=%d shards=%d: position %d ran shard %d", workers, shards, i, s)
				}
			}
		}
	}
}

// TestRangeTiles: the shard ranges of an n-item list cover [0, n) in shard
// order without gap or overlap, for lists shorter and longer than the shard
// count.
func TestRangeTiles(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 1 << 20} {
		for _, shards := range shardCounts[1:] {
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := Range(n, shards, s)
				if lo != next || hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d is [%d,%d), want lo=%d", n, shards, s, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Errorf("n=%d shards=%d: ranges end at %d", n, shards, next)
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want ≥1", w)
	}
	if w := Workers(-3); w < 1 {
		t.Errorf("Workers(-3) = %d, want ≥1", w)
	}
	if w := Workers(5); w != 5 {
		t.Errorf("Workers(5) = %d", w)
	}
}

// TestOnceMapConcurrentCallers: the one compute-once cache. Goroutines
// racing for a succeeding key share one computation and one value; every
// caller of a failing key sees its error, the error is not kept, and a later
// Get computes afresh; a context that expires mid-compute gives its caller
// ctx.Err() while the value still lands for the next one. Run under -race.
func TestOnceMapConcurrentCallers(t *testing.T) {
	var m OnceMap[int, *int]
	bg := context.Background()

	const keys, callers = 4, 8
	var computed [keys]atomic.Int32
	errOdd := errors.New("odd key")
	got := make([][keys]*int, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range computed {
				v, err := m.Get(bg, k, func() (*int, error) {
					computed[k].Add(1)
					if k%2 == 1 {
						return nil, errOdd
					}
					v := k
					return &v, nil
				})
				if (k%2 == 1) != (err == errOdd) {
					t.Errorf("key %d: err = %v", k, err)
				}
				got[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := range computed {
		n := computed[k].Load()
		if k%2 == 0 && n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
		// A failed entry is dropped as soon as it fails, so a caller that
		// arrives after that recomputes: at least once, at most once each.
		if k%2 == 1 && (n < 1 || n > callers) {
			t.Errorf("failing key %d computed %d times", k, n)
		}
		for g := range got {
			if got[g][k] != got[0][k] {
				t.Errorf("key %d: goroutine %d saw a different value", k, g)
			}
		}
	}

	// A failure is not pinned: the next Get runs its own compute.
	for _, k := range []int{1, 3} {
		before := computed[k].Load()
		v, err := m.Get(bg, k, func() (*int, error) {
			computed[k].Add(1)
			v := -k
			return &v, nil
		})
		if err != nil || *v != -k || computed[k].Load() != before+1 {
			t.Errorf("key %d after a failure: v=%v err=%v, %d computes", k, v, err, computed[k].Load()-before)
		}
	}

	// An abandoned wait leaves the computation running.
	ctx, cancel := context.WithCancel(bg)
	entered, finish := make(chan struct{}), make(chan struct{})
	abandoned := make(chan error, 1)
	go func() {
		_, err := m.Get(ctx, 200, func() (*int, error) {
			close(entered)
			<-finish
			v := 200
			return &v, nil
		})
		abandoned <- err
	}()
	<-entered
	cancel()
	if err := <-abandoned; err != context.Canceled {
		t.Errorf("abandoned wait returned %v, want context.Canceled", err)
	}
	close(finish)
	v, err := m.Get(bg, 200, func() (*int, error) {
		t.Error("the abandoned computation was restarted")
		return nil, nil
	})
	if err != nil || v == nil || *v != 200 {
		t.Errorf("value of the abandoned computation: v=%v err=%v", v, err)
	}
}

// TestOnceMapFinishedEntryBeatsCancelledCtx: a finished entry answers every
// caller, however done its ctx is. With one select over both channels Go
// picks a ready case at random, and about half of these calls got
// context.Canceled for a value already in the cache.
func TestOnceMapFinishedEntryBeatsCancelledCtx(t *testing.T) {
	var m OnceMap[string, int]
	if v, err := m.Get(context.Background(), "k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("first Get: v=%d err=%v", v, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 1000 {
		v, err := m.Get(ctx, "k", func() (int, error) {
			t.Fatal("a finished entry was recomputed")
			return 0, nil
		})
		if err != nil || v != 7 {
			t.Fatalf("call %d with a cancelled ctx: v=%d err=%v", i, v, err)
		}
	}
}

// TestOnceMapReady: Ready answers only a finished, successful entry, and
// neither starts a computation nor waits for a running one.
func TestOnceMapReady(t *testing.T) {
	var m OnceMap[int, int]
	bg := context.Background()
	if _, ok := m.Ready(1); ok {
		t.Error("Ready answered a key with no entry")
	}
	if _, err := m.Get(bg, 1, func() (int, error) { return 0, errors.New("no") }); err == nil {
		t.Fatal("the failing compute did not fail")
	}
	if _, ok := m.Ready(1); ok {
		t.Error("Ready answered a failed key")
	}

	entered, finish := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Get(bg, 2, func() (int, error) { //nolint:errcheck // checked through Ready below
			close(entered)
			<-finish
			return 22, nil
		})
	}()
	<-entered
	if _, ok := m.Ready(2); ok {
		t.Error("Ready answered a running computation")
	}
	close(finish)
	<-done
	if v, ok := m.Ready(2); !ok || v != 22 {
		t.Errorf("Ready of the finished key: v=%d ok=%v", v, ok)
	}
	if _, ok := m.Ready(3); ok {
		t.Error("Ready answered a key nothing computed")
	}
}
