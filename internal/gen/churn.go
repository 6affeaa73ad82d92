package gen

import (
	"fmt"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// ChurnConfig shapes a deterministic add/delete trace over an edge list.
type ChurnConfig struct {
	// Windows is the number of ingestion windows the edge list is split
	// into (≥1). Window w adds the contiguous slice [m·w/W, m·(w+1)/W) of
	// the edge list, preserving stream order — an add-only trace replays
	// the original stream exactly.
	Windows int
	// DelFrac is the deletion rate: each window deletes
	// ⌊DelFrac · windowAdds⌋ edges sampled uniformly from the edges live at
	// the window's start. 0 means add-only.
	DelFrac float64
	// Seed drives the deletion sampling.
	Seed uint64
}

// ChurnWindow is one ingestion window of a churn trace: the deletions
// applied at its start, then the additions.
type ChurnWindow struct {
	Index int
	Dels  []graph.Edge
	Adds  []graph.Edge
}

// ChurnTrace splits an edge list into a deterministic add/delete trace and
// feeds each window to fn in order. Deletions are sampled only from edges
// still live, so the trace is always applicable; the returned slice is the
// surviving edge set in original stream order — what a one-shot
// partitioning of the post-churn graph should consume.
func ChurnTrace(edges []graph.Edge, cfg ChurnConfig, fn func(w ChurnWindow) error) ([]graph.Edge, error) {
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("gen: churn needs ≥1 window, got %d", cfg.Windows)
	}
	if cfg.DelFrac < 0 || cfg.DelFrac >= 1 {
		return nil, fmt.Errorf("gen: churn DelFrac must be in [0,1), got %g", cfg.DelFrac)
	}
	rng := hashing.NewRNG(cfg.Seed)
	m := len(edges)
	// live tracks the indices (into edges) of currently live edges; alive
	// marks survivors so the final set keeps original stream order.
	live := make([]int, 0, m)
	alive := make([]bool, m)
	for w := 0; w < cfg.Windows; w++ {
		lo, hi := m*w/cfg.Windows, m*(w+1)/cfg.Windows
		cw := ChurnWindow{Index: w}
		nDel := int(cfg.DelFrac * float64(hi-lo))
		if nDel > len(live) {
			nDel = len(live)
		}
		for d := 0; d < nDel; d++ {
			pick := rng.Intn(len(live))
			idx := live[pick]
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
			alive[idx] = false
			cw.Dels = append(cw.Dels, edges[idx])
		}
		for i := lo; i < hi; i++ {
			live = append(live, i)
			alive[i] = true
		}
		cw.Adds = append(cw.Adds, edges[lo:hi]...)
		if err := fn(cw); err != nil {
			return nil, err
		}
	}
	survivors := make([]graph.Edge, 0, len(live))
	for i, e := range edges {
		if alive[i] {
			survivors = append(survivors, e)
		}
	}
	return survivors, nil
}
