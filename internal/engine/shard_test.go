package engine

import "testing"

// TestSharderInlinesSmallPhases pins the hand-off boundary: a phase of fewer
// than minParallelShards shards is given to par.Do with one worker, so it
// runs in shard order on the caller, and one at the boundary gets them all.
// The decomposition itself never depends on it.
func TestSharderInlinesSmallPhases(t *testing.T) {
	const boundary = minParallelShards * minShardItems
	sh := newSharder(4, 9, 100_000)
	if sh.Workers != 4 {
		t.Fatalf("sharder resolved %d workers, want 4", sh.Workers)
	}
	for nItems, want := range map[int]int{0: 1, 1: 1, boundary - 1: 1, boundary: 4, 100_000: 4} {
		if got := sh.workersFor(numShards(nItems)); got != want {
			t.Errorf("a %d-item phase (%d shards) runs on %d workers, want %d", nItems, numShards(nItems), got, want)
		}
	}
	if got := numShards(boundary - 1); got != minParallelShards-1 {
		t.Errorf("the largest inline phase has %d shards, want %d: the rule must not change the decomposition", got, minParallelShards-1)
	}
}
