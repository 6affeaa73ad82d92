// Package datasets is the registry of named benchmark graphs: the scaled
// synthetic stand-ins for the six graphs in the paper's Table 4.2, plus any
// externally registered edge-list or .csrg files. Every dataset has a
// Manifest — kind, size, degree-skew statistics, provenance — and each
// (name, scale) is built once per process: a builtin is its generator, which
// reruns as fast as a file of its output reads back, so nothing is kept on
// disk.
//
// Scale 1 keeps every graph small enough that the full experiment suite runs
// in seconds; benchmarks can request larger scales. Relative sizes mirror
// the paper (road-usa > road-ca; twitter and uk-web are the largest).
package datasets

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/par"
)

// Kind says where a dataset's edges come from.
type Kind string

const (
	// SyntheticRoad marks lattice road-network stand-ins.
	SyntheticRoad Kind = "synthetic-road"
	// SyntheticSocial marks preferential-attachment social-network stand-ins.
	SyntheticSocial Kind = "synthetic-social"
	// SyntheticWeb marks locality-clustered web-crawl stand-ins.
	SyntheticWeb Kind = "synthetic-web"
	// External marks datasets registered from files on disk (e.g. real SNAP
	// edge lists); their Build ignores the scale factor.
	External Kind = "external"
)

// Info describes one registered dataset: identity, the paper's original
// statistics when the dataset stands in for one of Table 4.2's graphs, and
// provenance.
type Info struct {
	Name string
	Kind Kind
	// Class is the degree class the paper assigns (Table 4.2) — or, for
	// external datasets, the class claimed at registration.
	Class graph.DegreeClass
	// PaperEdges/PaperVerts are the sizes reported in Table 4.2 ("" for
	// datasets that stand in for nothing).
	PaperEdges string
	PaperVerts string
	// Provenance says how the edges are produced: generator and parameters
	// for synthetic datasets, the source path for external ones.
	Provenance string
}

// Builder produces the dataset's graph at a scale factor (external datasets
// ignore scale). Builders must be deterministic.
type Builder func(scale int) (*graph.Graph, error)

type entry struct {
	info  Info
	build Builder
}

// builtins are the scaled stand-ins for Table 4.2's six graphs, in the
// paper's figure column order: road networks first, then heavy-tailed, then
// power-law. Names() lists them in this order.
var builtins = []entry{
	{Info{
		Name: "road-ca", Kind: SyntheticRoad, Class: graph.LowDegree,
		PaperEdges: "5.5M", PaperVerts: "1.9M",
		Provenance: "gen.RoadNet lattice, side²≈12000·scale, seed 0xca0",
	}, func(s int) (*graph.Graph, error) {
		side := isqrt(12000 * s)
		return gen.RoadNet("road-ca", side, side, 0xca0), nil
	}},
	{Info{
		Name: "road-usa", Kind: SyntheticRoad, Class: graph.LowDegree,
		PaperEdges: "57.5M", PaperVerts: "23.6M",
		Provenance: "gen.RoadNet lattice, side²≈40000·scale, seed 0x05a",
	}, func(s int) (*graph.Graph, error) {
		side := isqrt(40000 * s)
		return gen.RoadNet("road-usa", side, side, 0x05a), nil
	}},
	{Info{
		Name: "livejournal", Kind: SyntheticSocial, Class: graph.HeavyTailed,
		PaperEdges: "68.5M", PaperVerts: "4.8M",
		Provenance: "gen.PrefAttach n=9000·scale m=8, seed 0x17e",
	}, func(s int) (*graph.Graph, error) {
		return gen.PrefAttach("livejournal", 9000*s, 8, 0x17e), nil
	}},
	{Info{
		Name: "enwiki", Kind: SyntheticSocial, Class: graph.HeavyTailed,
		PaperEdges: "101M", PaperVerts: "4.2M",
		Provenance: "gen.PrefAttach n=6000·scale m=12, seed 0xe4171",
	}, func(s int) (*graph.Graph, error) {
		return gen.PrefAttach("enwiki", 6000*s, 12, 0xe4171), nil
	}},
	{Info{
		Name: "twitter", Kind: SyntheticSocial, Class: graph.HeavyTailed,
		PaperEdges: "1.46B", PaperVerts: "41.6M",
		Provenance: "gen.PrefAttach n=16000·scale m=10, seed 0x7417713",
	}, func(s int) (*graph.Graph, error) {
		return gen.PrefAttach("twitter", 16000*s, 10, 0x7417713), nil
	}},
	{Info{
		Name: "uk-web", Kind: SyntheticWeb, Class: graph.PowerLaw,
		PaperEdges: "3.71B", PaperVerts: "105.1M",
		Provenance: "gen.WebGraph n=30000·scale α=1.62 locality=0.86, seed 0x0b3b",
	}, func(s int) (*graph.Graph, error) {
		return gen.WebGraph("uk-web", gen.WebGraphConfig{
			N: 30000 * s, Alpha: 1.62, MaxOutD: 3000 * s,
			Locality: 0.86, Window: 64, Seed: 0x0b3b,
		}), nil
	}},
}

var (
	regMu sync.RWMutex
	// registry holds every dataset by name: the builtins, then what Register
	// adds.
	registry = indexBuiltins()
	// extraOrder is the externally registered names, sorted; Names() lists
	// them after the builtins.
	extraOrder []string
)

func indexBuiltins() map[string]entry {
	m := make(map[string]entry, len(builtins))
	for _, e := range builtins {
		m[e.info.Name] = e
	}
	return m
}

// Register adds a dataset to the registry. It returns an error on an empty
// or duplicate name or a nil builder; a builtin's name is taken.
func Register(info Info, build Builder) error {
	if info.Name == "" {
		return fmt.Errorf("datasets: Register with empty name")
	}
	if build == nil {
		return fmt.Errorf("datasets: Register(%q) with nil builder", info.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		return fmt.Errorf("datasets: dataset %q already registered", info.Name)
	}
	registry[info.Name] = entry{info: info, build: build}
	extraOrder = append(extraOrder, info.Name)
	sort.Strings(extraOrder)
	return nil
}

// RegisterFile registers an external edge-list or .csrg file under name. The
// file is loaded (format-sniffed) on first Load; class is the degree class
// the caller expects the graph to have. Scale factors are ignored — external
// graphs are whatever size they are.
func RegisterFile(name, path string, class graph.DegreeClass) error {
	info := Info{
		Name: name, Kind: External, Class: class,
		Provenance: fmt.Sprintf("file %s", path),
	}
	return Register(info, func(int) (*graph.Graph, error) {
		g, err := graph.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("datasets: %s: %w", name, err)
		}
		g.Name = name
		return g, nil
	})
}

// Names returns all registered dataset names: the paper's six in figure
// column order, then externally registered datasets sorted by name.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builtins)+len(extraOrder))
	for _, e := range builtins {
		out = append(out, e.info.Name)
	}
	return append(out, extraOrder...)
}

// Describe returns the static dataset metadata for name. Manifest adds the
// measured statistics (which require building the graph).
func Describe(name string) (Info, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Info{}, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
	return e.info, nil
}

type cacheKey struct {
	name  string
	scale int
}

// cache holds the loaded graphs: each (name, scale) is built once and
// concurrent loaders of one dataset share that build (a cached road-ca never
// waits behind an in-progress uk-web). A failed build is not kept — an
// external file dataset can fail transiently (file not there yet), and a
// pinned error would outlive its cause — so the next Load retries.
var cache par.OnceMap[cacheKey, *graph.Graph]

// Load builds (or returns the cached) graph for name at the given scale.
// Scale 1 is the test-sized default; builders are deterministic, so the same
// (name, scale) always yields the same graph.
func Load(name string, scale int) (*graph.Graph, error) {
	if scale < 1 {
		scale = 1
	}
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
	// Load's signature carries no context: a load is never abandoned.
	return cache.Get(context.TODO(), cacheKey{name, scale}, func() (*graph.Graph, error) {
		g, err := e.build(scale)
		if err != nil {
			return nil, err
		}
		g.EnsureCSR()
		return g, nil
	})
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
