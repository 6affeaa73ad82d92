// Package engine (fixture) is a deterministic package: no forbid row
// sanctions it, so it holds a line that trips every reference, import and
// declaration row — plus the near misses each row must leave alone.
package engine

import (
	"math/rand"
	randv2 "math/rand/v2"
	_ "net/http" // want `import of net/http outside the service layer, in package engine`
	"os"
	"runtime"
	once "sync"
	"syscall"
	"time"

	_ "graphpart/internal/oracle"  // want `import of graphpart/internal/oracle outside a main package, in package engine: internal/oracle is the tests' independent reference`
	_ "graphpart/internal/service" // want `import of graphpart/internal/service outside the service layer`
)

func badWallClock() time.Time {
	return time.Now() // want `time.Now in deterministic package engine`
}

func badElapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want `time.Since in deterministic package engine`
}

func badDeadline(t time.Time) time.Duration {
	return time.Until(t) // want `time.Until in deterministic package engine`
}

func badGlobalRand() int {
	return rand.Intn(10) // want `rand.Intn in deterministic package engine`
}

func badGlobalRandV2() int {
	return randv2.IntN(10) // want `rand.IntN in deterministic package engine`
}

func badCoreCount() int {
	return runtime.NumCPU() // want `runtime.NumCPU in deterministic package engine`
}

// A function value is the same read as a call.
var clock = time.Now // want `time.Now in deterministic package engine`

func badFuncValue() int {
	f := runtime.NumCPU // want `runtime.NumCPU in deterministic package engine`
	return f()
}

func goodSeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // deterministic by construction
	var src rand.Source = rand.NewSource(seed)
	return r.Intn(10) + int(src.Int63()) + int(randv2.New(randv2.NewPCG(1, 2)).Uint32())
}

func goodWaivedClock() time.Time {
	//graphlint:nondet progress line only; nothing a result reads (fixture)
	return time.Now()
}

// The worker-count row has no waiver: the default is a call to par.Workers.
func goodWaivedWorkers() int {
	//graphlint:nondet worker-pool default only; results are worker-count-independent (determinism test)
	return runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS in deterministic package engine: .*no waiver`
}

// A waiver carries its proof: the bare marker still waives the site, and is
// itself the finding.
func badBareWaivers(m map[int]int) time.Time {
	//graphlint:unordered
	for range m { // want:-1 `bare //graphlint:unordered waiver`
	}
	//graphlint:nondet
	return time.Now() // want:-1 `bare //graphlint:nondet waiver`
}

// One compute-once cache: every spelling of sync.Once, through a renamed
// import too.
type cache struct {
	once once.Once // want `sync.Once outside internal/par, in package engine`
	mu   once.Mutex
}

var (
	onceFunc   = once.OnceFunc(func() {})                               // want `sync.OnceFunc outside internal/par`
	onceValue  = once.OnceValue(func() int { return 1 })                // want `sync.OnceValue outside internal/par`
	onceValues = once.OnceValues(func() (int, error) { return 1, nil }) // want `sync.OnceValues outside internal/par`
)

// No environment knobs.
func badEnv() []string {
	v, _ := os.LookupEnv("GRAPHPART_WORKERS")      // want `os.LookupEnv in package engine`
	w, _ := syscall.Getenv("GRAPHPART_WORKERS")    // want `syscall.Getenv in package engine`
	return append(os.Environ(), os.Getenv("HOME"), // want `os.Environ in package engine` // want `os.Getenv in package engine`
		os.ExpandEnv("$HOME"), v, w, os.Args[0]) // want `os.ExpandEnv in package engine`
}

// One fan-out: a private pool or worker default is banned by name.
func forShards(n int, fn func(int)) {} // want `declaration of forShards in package engine`

func forEachShard(n int, fn func(int)) {} // want `declaration of forEachShard in package engine`

func resolveWorkers(w int) int { return w } // want `declaration of resolveWorkers in package engine`

// One ingress declaration: no per-strategy pass count or heuristic marker.
type strategy struct{}

type shape struct {
	Passes          int // a field is not a zero-argument method
	HeuristicPasses int
}

func (strategy) Passes() int { return 1 } // want `declaration of Passes in package engine`

func (strategy) Heuristic() bool { return true } // want `declaration of Heuristic in package engine`

func (strategy) PassesOver(n int) int { return n }

type HeuristicStrategy interface { // want `declaration of HeuristicStrategy in package engine`
	IsHeuristic() bool // want `declaration of IsHeuristic in package engine`
}

func isGreedy(name string) bool { return name == "HDRF" } // want `declaration of isGreedy in package engine`

// Registries are literal tables: nothing registers itself at init.
var registry = map[string]func() strategy{}

func init() { registry["hash"] = func() strategy { return strategy{} } } // want `declaration of init in package engine: registries are literal tables`

var strategies = []struct{ name string }{{"hash"}}

func initStrategies() []string { return []string{strategies[0].name} }

// Placement is read a row at a time: no per-replica callback, no per-bit test.
type assignment struct{ replicas []uint64 }

func (a *assignment) ForEachReplica(fn func(p int)) {} // want `declaration of ForEachReplica in package engine`

func (a *assignment) HasInEdges(p int) bool { return false } // want `declaration of HasInEdges in package engine`

func (a *assignment) HasOutEdges(p int) bool { return false } // want `declaration of HasOutEdges in package engine`

func Holds(a *assignment, p int) bool { return false } // want `declaration of Holds in package engine: the engines read placement a row at a time`

func (a *assignment) Rows() (replicas, in, out []uint64) { return a.replicas, nil, nil }

func (a *assignment) HasReplica(p int) bool { return a.replicas[p>>6]&(1<<uint(p&63)) != 0 }

// Adjacency is a view taken once and sliced per visit: no per-vertex accessor
// that re-checks the build and re-reads the index.
type csr struct {
	index, edgeIDs []int32
}

func (g *csr) InEdgeIDs(v int) []int32 { return g.edgeIDs[g.index[v]:g.index[v+1]] } // want `declaration of InEdgeIDs in package engine: the engine slices adjacency from the view Execute took once`

func (g *csr) OutEdgeIDs(v int) []int32 { return nil } // want `declaration of OutEdgeIDs in package engine`

func (g *csr) List(v int) []int32 { return g.edgeIDs[g.index[v]:g.index[v+1]] }
