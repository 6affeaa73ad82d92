package partition

import (
	"errors"
	"fmt"
)

// ErrNotIncremental is wrapped by AsIncremental when a strategy cannot
// assign edges incrementally (today: the multi-pass family, which needs the
// whole edge list per pass). Callers fall back to repartition-per-batch.
var ErrNotIncremental = errors.New("partition: strategy cannot assign incrementally")

// AsIncremental resolves, by capability, the Assigner that places a churning
// graph's edges one at a time across batches: a stateless strategy's own
// assigner (adds hash exactly as one-shot ingress would), or loader 0 of a
// streaming strategy, built for zero vertices and grown as edges arrive —
// the same loader Options{Loaders: 1} streams the whole edge list through.
// Anything else — the multi-pass family — gets an error wrapping
// ErrNotIncremental that names the missing capability, and callers
// repartition per batch instead.
func AsIncremental(s Strategy, numParts int, seed uint64) (asg Assigner, err error) {
	switch impl := s.(type) {
	case StatelessStrategy:
		asg, err = impl.NewAssigner(numParts, seed)
	case StreamingStrategy:
		asg, err = impl.NewLoader(0, numParts, 0, seed)
	case MultiPassStrategy:
		_, _, why := impl.MultiPass()
		return nil, fmt.Errorf("%w: %s is a MultiPassStrategy (%s)", ErrNotIncremental, s.Name(), why)
	default:
		return nil, fmt.Errorf("%w: %s implements neither StatelessStrategy nor StreamingStrategy", ErrNotIncremental, s.Name())
	}
	if err != nil {
		return nil, fmt.Errorf("partition: strategy %s: %w", s.Name(), err)
	}
	return asg, nil
}
