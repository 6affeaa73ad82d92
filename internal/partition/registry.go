package partition

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// System identifies one of the three graph processing systems the paper
// evaluates.
type System string

// The three systems of Table 1.1, plus the thesis's "all strategies in one
// system" configurations of chapters 8 and 9, plus the repo's own
// every-registered-family configuration (the paper's 13 and the post-paper
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
	// (0 keeps PowerLyra's default of 100).
	HybridThreshold int
	// Loaders overrides the number of independent ingress loaders used by
	// the greedy strategies (0 means one per partition).
	Loaders int
	// MemBudget overrides HEP's in-memory edge budget as a fraction of the
	// edge count (0 keeps DefaultMemBudget).
	MemBudget float64
}

// Factory constructs a strategy from options. Factories are registered by
// each strategy file's init, so adding a strategy needs no central edits.
type Factory func(Options) Strategy

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// ErrNoIngressCapability is the error wrapped by Register's panic when a
// factory produces a strategy implementing none of the ingress capabilities
// (StatelessStrategy, StreamingStrategy, MultiPassStrategy). Such a strategy
// would register cleanly and then fail only deep inside ShapeOf-driven
// schedulers; the registry rejects it up front, at init time.
var ErrNoIngressCapability = errors.New("partition: strategy declares no ingress capability")

// Register adds a strategy factory under its paper name. It panics on an
// empty name, nil factory, duplicate registration, or a factory whose
// strategy declares no ingress capability — all programmer errors at init
// time. The capability panic wraps ErrNoIngressCapability.
func Register(name string, f Factory) {
	if name == "" {
		panic("partition: Register with empty strategy name")
	}
	if f == nil {
		panic(fmt.Sprintf("partition: Register(%q) with nil factory", name))
	}
	probe := f(Options{})
	if probe == nil {
		panic(fmt.Errorf("%w: Register(%q) factory returned nil", ErrNoIngressCapability, name))
	}
	switch probe.(type) {
	case StatelessStrategy, StreamingStrategy, MultiPassStrategy:
	default:
		panic(fmt.Errorf("%w: Register(%q) strategy %T implements none of StatelessStrategy/StreamingStrategy/MultiPassStrategy",
			ErrNoIngressCapability, name, probe))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("partition: duplicate strategy registration %q", name))
	}
	factories[name] = f
}

// New constructs a registered strategy by its paper name. The built-in set:
// Random, CanonicalRandom, AsymRandom, Oblivious, HDRF, Grid,
// ResilientGrid, PDS, Hybrid, H-Ginger, 1D, 1D-Target, 2D.
func New(name string, opt Options) (Strategy, error) {
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("partition: unknown strategy %q (have %v)", name, AllNames())
	}
	return f(opt), nil
}

// MustNew is New that panics on error; for tests and experiment tables.
func MustNew(name string, opt Options) Strategy {
	s, err := New(name, opt)
	if err != nil {
		panic(err)
	}
	return s
}

// AllNames returns every registered strategy name, sorted.
func AllNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SystemStrategies returns the strategy names each system ships with, in
// the paper's order (Table 1.1 for the native sets; §8.1/§9.1 for the
// "all strategies" sets). PDS is included in the native sets, as in Table
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
		// Every registered family: the paper's 13 plus the post-paper
		// additions (HEP, JaBeJaSwap, Multilevel). The list is pinned here
		// rather than derived from AllNames so the advisor's choice set for
		// this system cannot drift silently when a strategy registers.
		return []string{
			"Random", "CanonicalRandom", "AsymRandom", "Oblivious", "HDRF",
			"Grid", "ResilientGrid", "PDS", "Hybrid", "H-Ginger",
			"1D", "1D-Target", "2D", "HEP", "JaBeJaSwap", "Multilevel",
		}, nil
	}
	return nil, fmt.Errorf("partition: unknown system %q", sys)
}
