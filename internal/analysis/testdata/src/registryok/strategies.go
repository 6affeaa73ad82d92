package partition

// Hash is a correctly-shaped stateless strategy: registered in this file's
// init, exactly one ingress capability.
type Hash struct{}

func (Hash) Name() string                             { return "hash" }
func (Hash) Partition(numParts int) []int32           { return nil }
func (Hash) NewAssigner(numParts int) func(int) int32 { return nil }

// Greedy is a correctly-shaped streaming strategy with per-loader state.
type Greedy struct{ state []int32 }

func (*Greedy) Name() string                   { return "greedy" }
func (*Greedy) Partition(numParts int) []int32 { return nil }
func (*Greedy) NewLoader(id int) func(int) int32 {
	return nil
}

func init() {
	Register("hash", func() Strategy { return Hash{} })
	Register("greedy", func() Strategy { return &Greedy{} })
}
