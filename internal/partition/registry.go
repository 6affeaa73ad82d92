package partition

import (
	"errors"
	"fmt"
	"sort"
)

// System identifies one of the three graph processing systems the paper
// evaluates.
type System string

// The three systems of Table 1.1, plus the thesis's "all strategies in one
// system" configurations of chapters 8 and 9, plus the repo's own
// every-family configuration (the paper's 13 and the post-paper
// families: HEP, JaBeJaSwap, Multilevel).
const (
	PowerGraph   System = "PowerGraph"
	PowerLyra    System = "PowerLyra"
	GraphX       System = "GraphX"
	PowerLyraAll System = "PowerLyra-All"
	GraphXAll    System = "GraphX-All"
	AllFamilies  System = "All-Families"
)

// Options carries per-strategy tunables that experiments may scale.
type Options struct {
	// HybridThreshold overrides the Hybrid/H-Ginger high-degree cutoff
	// (0 keeps DefaultHybridThreshold).
	HybridThreshold int
	// Loaders overrides the number of independent ingress loaders used by
	// the greedy strategies (0 means one per partition).
	Loaders int
	// MemBudget overrides HEP's in-memory edge budget as a fraction of the
	// edge count (0 keeps DefaultMemBudget).
	MemBudget float64
}

// ErrNoIngressCapability is the error ParallelPartition wraps when it is
// handed a strategy implementing none of the ingress capabilities
// (StatelessStrategy, StreamingStrategy, MultiPassStrategy). Every strategy
// New builds has exactly one; a caller-built Strategy may not.
var ErrNoIngressCapability = errors.New("partition: strategy declares no ingress capability")

// A strategyRow is one strategy New can build: its paper name and its
// constructor from Options.
type strategyRow struct {
	name  string
	build func(Options) Strategy
}

// strategies is the registry, in the All-Families order: the paper's 13
// (Table 1.1 plus the thesis's ResilientGrid and 1D-Target), then the
// post-paper families HEP, JaBeJaSwap and Multilevel. Adding a strategy is
// its file and its row here.
var strategies = []strategyRow{
	hashRow(random), hashRow(canonicalRandom), hashRow(asymRandom),
	{"Oblivious", func(opt Options) Strategy { return oblivious{numLoaders: opt.Loaders} }},
	{"HDRF", func(opt Options) Strategy { return HDRF{NumLoaders: opt.Loaders} }},
	hashRow(grid), hashRow(resilientGrid), hashRow(pds),
	{"Hybrid", func(opt Options) Strategy { return hybrid{threshold: opt.HybridThreshold} }},
	{"H-Ginger", func(opt Options) Strategy { return hybridGinger{threshold: opt.HybridThreshold} }},
	hashRow(oneD), hashRow(oneDTarget), hashRow(twoD),
	{"HEP", func(opt Options) Strategy { return hep{memBudget: opt.MemBudget} }},
	{"JaBeJaSwap", func(Options) Strategy { return JaBeJaSwap{} }},
	{"Multilevel", func(Options) Strategy { return multilevel{} }},
}

// hashRow is the row of a hash strategy: Options configure nothing, and New
// hands out the one package-level row without allocating.
func hashRow(s *hashStrategy) strategyRow {
	return strategyRow{s.name, func(Options) Strategy { return s }}
}

// New constructs a strategy by its paper name, one of the strategies
// table's rows.
func New(name string, opt Options) (Strategy, error) {
	for _, r := range strategies {
		if r.name == name {
			return r.build(opt), nil
		}
	}
	return nil, fmt.Errorf("partition: unknown strategy %q (have %v)", name, AllNames())
}

// MustNew is New that panics on error; for tests and experiment tables.
func MustNew(name string, opt Options) Strategy {
	s, err := New(name, opt)
	if err != nil {
		panic(err)
	}
	return s
}

// AllNames returns every strategy name, sorted.
func AllNames() []string {
	names := tableNames()
	sort.Strings(names)
	return names
}

// tableNames returns the strategies table's names in its order.
func tableNames() []string {
	names := make([]string, len(strategies))
	for i, r := range strategies {
		names[i] = r.name
	}
	return names
}

// SystemStrategies returns the strategy names each system ships with, in
// the paper's order (Table 1.1 for the native sets; §8.1/§9.1 for the
// "all strategies" sets; the strategies table for All-Families). PDS is included in the native sets, as in Table
// 1.1, even though the paper's measurements exclude it for cluster-size
// reasons (§5.2.3); callers whose partition count is incompatible simply
// skip it.
func SystemStrategies(sys System) ([]string, error) {
	switch sys {
	case PowerGraph:
		return []string{"Random", "Grid", "Oblivious", "HDRF", "PDS"}, nil
	case PowerLyra:
		return []string{"Random", "Grid", "Oblivious", "Hybrid", "H-Ginger", "PDS"}, nil
	case GraphX:
		return []string{"AsymRandom", "CanonicalRandom", "1D", "2D"}, nil
	case PowerLyraAll:
		// §8.1: PowerLyra's native six plus 1D, 2D, AsymRandom, HDRF and
		// the thesis's 1D-Target. (CanonicalRandom ≡ Random; omitted.)
		return []string{
			"1D", "2D", "AsymRandom", "Grid", "HDRF",
			"Hybrid", "H-Ginger", "Oblivious", "Random", "1D-Target",
		}, nil
	case GraphXAll:
		// §9.1: GraphX's native four plus Hybrid, Oblivious, HDRF,
		// H-Ginger, and the resilient Grid.
		return []string{
			"ResilientGrid", "Oblivious", "HDRF", "AsymRandom", "Hybrid",
			"2D", "1D", "H-Ginger", "CanonicalRandom",
		}, nil
	case AllFamilies:
		return tableNames(), nil
	}
	return nil, fmt.Errorf("partition: unknown system %q", sys)
}
