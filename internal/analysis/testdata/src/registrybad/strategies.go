package partition

// Forgotten satisfies Strategy with one capability but no init registers
// it: the experiment tables would silently miss it.
type Forgotten struct{} // want `strategy type Forgotten is not registered`

func (Forgotten) Name() string                             { return "forgotten" }
func (Forgotten) Partition(numParts int) []int32           { return nil }
func (Forgotten) NewAssigner(numParts int) func(int) int32 { return nil }

// Capless satisfies Strategy but no ingress capability: ShapeOf and the
// stream builders have nothing to dispatch on.
type Capless struct{} // want `strategy type Capless implements no ingress capability`

func (Capless) Name() string                   { return "capless" }
func (Capless) Partition(numParts int) []int32 { return nil }

// Ambiguous claims two ingress capabilities; dispatch order would decide
// which one wins, silently.
type Ambiguous struct{} // want `strategy type Ambiguous implements 2 ingress capabilities`

func (Ambiguous) Name() string                             { return "ambiguous" }
func (Ambiguous) Partition(numParts int) []int32           { return nil }
func (Ambiguous) NewAssigner(numParts int) func(int) int32 { return nil }
func (Ambiguous) NewLoader(id int) func(int) int32         { return nil }

func init() {
	Register("capless", func() Strategy { return Capless{} })
	Register("ambiguous", func() Strategy { return Ambiguous{} })
}
