package par

import (
	"sync"
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
