package partition

import (
	"math"
	"sort"
)

// NeedsRebalance reports whether the state's edge balance (max/mean) has
// drifted past maxBalance. At or below 1 it never does.
func (st *PartitionState) NeedsRebalance(maxBalance float64) bool {
	return maxBalance > 1 && st.q.EdgeBalance() > maxBalance
}

// Rebalance migrates edges off overloaded partitions until none exceeds
// ⌊maxBalance · mean⌋ edges; at or below 1 it does nothing. Donors are
// drained most-loaded first, newest edges first; each moved edge goes to
// the under-cap partition scoring best on (endpoints already resident,
// load, id) — resident endpoints mean the move adds no new vertex images.
// Works for every strategy: migration touches only the state's own
// bookkeeping, never the assigner. Deterministic given the state. It
// returns the number of edges moved.
func (st *PartitionState) Rebalance(maxBalance float64) int {
	if maxBalance <= 1 || st.q.NumEdges() == 0 {
		return 0
	}
	// Cap = ⌊maxBalance·mean⌋ so the post-pass balance (maxLoad/mean) lands
	// at or under the threshold; clamped to ⌈mean⌉, below which draining
	// donors is infeasible (total headroom < total overflow).
	mean := float64(st.q.NumEdges()) / float64(st.numParts)
	cap64 := int64(maxBalance * mean)
	if minCap := int64(math.Ceil(mean)); cap64 < minCap {
		cap64 = minCap
	}

	donors := make([]int, 0, st.numParts)
	for p := 0; p < st.numParts; p++ {
		if st.q.EdgesOn(p) > cap64 {
			donors = append(donors, p)
		}
	}
	if len(donors) == 0 {
		return 0
	}
	sort.Slice(donors, func(i, j int) bool {
		if st.q.EdgesOn(donors[i]) != st.q.EdgesOn(donors[j]) {
			return st.q.EdgesOn(donors[i]) > st.q.EdgesOn(donors[j])
		}
		return donors[i] < donors[j]
	})

	// Group live positions by partition once; positions are stable during
	// the pass (moves change p, never the live order).
	byPart := make([][]int32, st.numParts)
	for pos := range st.live {
		p := st.live[pos].p
		byPart[p] = append(byPart[p], int32(pos))
	}

	moved := 0
	for _, donor := range donors {
		cands := byPart[donor]
		for i := len(cands) - 1; i >= 0 && st.q.EdgesOn(donor) > cap64; i-- {
			pos := cands[i]
			to := st.bestReceiver(pos, int32(donor), cap64)
			if to < 0 {
				break // every other partition is at cap
			}
			st.moveLive(pos, to)
			moved++
		}
	}
	return moved
}

// bestReceiver scores the under-cap partitions for the edge at live[pos]:
// most resident endpoints first (no new images), then least loaded, then
// lowest id. -1 when no partition is under cap.
func (st *PartitionState) bestReceiver(pos, from int32, cap64 int64) int32 {
	e := st.live[pos].e
	best := int32(-1)
	bestScore := -1
	var bestLoad int64
	for p := 0; p < st.numParts; p++ {
		if int32(p) == from || st.q.EdgesOn(p) >= cap64 {
			continue
		}
		score := 0
		if st.ref.get(int(e.Src), p) > 0 {
			score++
		}
		if st.ref.get(int(e.Dst), p) > 0 {
			score++
		}
		load := st.q.EdgesOn(p)
		if best < 0 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = int32(p), score, load
		}
	}
	return best
}

// moveLive migrates the edge at live[pos] to partition to, updating the
// incidence bookkeeping and quality summary.
func (st *PartitionState) moveLive(pos, to int32) {
	le := &st.live[pos]
	from := le.p
	st.removeIncidence(int(le.e.Src), int(from))
	st.removeIncidence(int(le.e.Dst), int(from))
	st.q.MoveEdge(int(from), int(to))
	st.addIncidence(int(le.e.Src), int(to))
	st.addIncidence(int(le.e.Dst), int(to))
	le.p = to
}
