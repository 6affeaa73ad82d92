// Package partition (fixture) models the strategy registry the registry
// analyzer enforces: the base Strategy contract, the three mutually
// exclusive ingress capabilities and the self-registration entry point.
package partition

// Strategy is the base contract every partitioning strategy satisfies.
type Strategy interface {
	Name() string
	Partition(numParts int) []int32
}

// StatelessStrategy assigns each edge independently.
type StatelessStrategy interface {
	Strategy
	NewAssigner(numParts int) func(edge int) int32
}

// StreamingStrategy consumes the edge stream with per-loader state.
type StreamingStrategy interface {
	Strategy
	NewLoader(id int) func(edge int) int32
}

// MultiPassStrategy revisits the edge list across passes.
type MultiPassStrategy interface {
	Strategy
	PassCount() int
}

var registry = map[string]func() Strategy{}

// Register installs a strategy constructor under its name.
func Register(name string, mk func() Strategy) { registry[name] = mk }
