// Package metrics (fixture) exercises the detrange analyzer: every map
// range must be a recognized order-safe shape, sorted-key iteration, or
// carry a waiver.
package metrics

import "sort"

// Quality mimics the real metrics accumulator whose Merge contract (PR 7)
// requires deterministic shard order: merging inside a map range is exactly
// the violation the analyzer exists to catch.
type Quality struct{ Edges int }

// Merge folds another shard's counts in. Callers must merge in ascending
// shard order; the sums are commutative but the contract keeps every
// accumulation order reproducible.
func (q *Quality) Merge(o *Quality) { q.Edges += o.Edges }

func badSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `non-deterministic iteration over map m`
		total += v
	}
	return total
}

func badMergeOrder(shards map[int]*Quality) *Quality {
	out := &Quality{}
	for _, q := range shards { // want `non-deterministic iteration over map shards`
		out.Merge(q)
	}
	return out
}

func badCollectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `non-deterministic iteration over map m`
		keys = append(keys, k)
	}
	return keys // collected but never sorted: order still leaks
}

func goodCollectAndSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func badFilteredNoSort(m map[int]int) []int {
	var keys []int
	for k := range m { // want `non-deterministic iteration over map m`
		if k > 0 {
			keys = append(keys, k)
		}
	}
	return keys // filtered, collected, never sorted
}

func goodFilteredCollectAndSort(h map[int]int) []int {
	var degrees []int
	for d := range h {
		if d > 0 {
			degrees = append(degrees, d)
		}
	}
	sort.Ints(degrees)
	return degrees
}

func goodMergeSorted(shards map[int]*Quality) *Quality {
	ids := make([]int, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := &Quality{}
	for _, id := range ids {
		out.Merge(shards[id])
	}
	return out
}

func goodClear(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

func goodRepetition(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func goodWaived(m map[string]int) int {
	best := 0
	//graphlint:unordered max reduction over values — commutative, order cannot reach the result
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
