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

// Row is a stateless strategy registered through package-level pointer
// values: one type serves several names, and no Register call names it —
// the factory's return value is what registers it.
type Row struct{ name string }

func (r *Row) Name() string                           { return r.name }
func (*Row) Partition(numParts int) []int32           { return nil }
func (*Row) NewAssigner(numParts int) func(int) int32 { return nil }

var modRow, xorRow = &Row{"mod"}, &Row{"xor"}

func init() {
	Register("hash", func() Strategy { return Hash{} })
	Register("greedy", func() Strategy { return &Greedy{} })
	for _, r := range []*Row{modRow, xorRow} {
		Register(r.name, func() Strategy { return r })
	}
}
