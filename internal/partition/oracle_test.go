package partition

import (
	"reflect"
	"slices"
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/oracle"
)

// buildOracle is the test-side reference the one ingress driver and the one
// stream builder are checked against now that no separate sequential driver
// exists. It shares no code with them: placements come from one Assigner
// over g.Edges in order (stateless), one Loader per loaderBlock in order
// (streaming) or the strategy's own Partition (multi-pass), and
// internal/oracle counts the cut they make in plain slices — no bitMatrix,
// no metrics.Quality, no chooseMaster.
func buildOracle(t testing.TB, s Strategy, g *graph.Graph, numParts int, seed uint64) *oracle.Cut {
	t.Helper()
	n, m := g.NumVertices(), g.NumEdges()
	parts := make([]int32, m)
	var hint []int32
	switch impl := s.(type) {
	case StatelessStrategy:
		asg, err := impl.NewAssigner(numParts, seed)
		if err != nil {
			t.Fatalf("%s: oracle assigner: %v", s.Name(), err)
		}
		for i, e := range g.Edges {
			parts[i] = asg.Assign(e)
		}
		if h, ok := asg.(MasterHinter); ok {
			hint = make([]int32, n)
			for v := range hint {
				hint[v] = h.MasterHint(graph.VertexID(v))
			}
		}
	case StreamingStrategy:
		nl := max(impl.Loaders(numParts), 1)
		for id := 0; id < nl; id++ {
			lo, hi := loaderBlock(m, nl, id)
			if lo >= hi {
				continue
			}
			ld, err := impl.NewLoader(n, numParts, id, seed)
			if err != nil {
				t.Fatalf("%s: oracle loader: %v", s.Name(), err)
			}
			for i := lo; i < hi; i++ {
				parts[i] = ld.Assign(g.Edges[i])
			}
		}
	default:
		res, err := s.Partition(g, numParts, seed)
		if err != nil {
			t.Fatalf("%s: oracle partition: %v", s.Name(), err)
		}
		copy(parts, res.EdgeParts)
		hint = res.MasterHint
	}
	c, err := oracle.NewCut(n, numParts, g.Edges, parts, hint, seed)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return c
}

// tableView is the read surface of the cutTable core, captured as plain
// values so the three holders (Assignment, StreamSummary, PartitionState)
// and the oracle are all compared by the one assertTablesEqual below, which
// walks its fields: a field added here is checked for every holder.
type tableView struct {
	Masters   []int32
	Replicas  []int   // images per vertex
	EdgeCount []int64 // edges per partition
	Images    []int64 // images per partition
	Total     int64
	NumEdges  int64
	RF        float64
	Balance   float64
}

// viewOf reads a holder's core over its first n vertices.
func viewOf(c *cutTable, n int) tableView {
	v := tableView{
		Masters:   make([]int32, n),
		Replicas:  make([]int, n),
		EdgeCount: c.q.EdgeCounts(),
		Images:    make([]int64, c.numParts),
		Total:     c.TotalReplicas(),
		NumEdges:  c.q.NumEdges(),
		RF:        c.ReplicationFactor(),
		Balance:   c.EdgeBalance(),
	}
	for i := 0; i < n; i++ {
		v.Masters[i] = int32(c.Master(graph.VertexID(i)))
		v.Replicas[i] = c.Replicas(graph.VertexID(i))
	}
	for p := range v.Images {
		v.Images[p] = c.ReplicasOnPart(p)
	}
	return v
}

// cutView reads the oracle's cut.
func cutView(c *oracle.Cut) tableView {
	return tableView{c.Masters, c.Replicas, c.EdgeCount, c.Images, c.Total, int64(len(c.Parts)), c.RF(), c.Balance()}
}

// assertTablesEqual names each field that differs and, in a per-vertex or
// per-partition slice, the first index where it does.
func assertTablesEqual(t testing.TB, label string, got, want tableView) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range gv.NumField() {
		g, w, name := gv.Field(i), wv.Field(i), gv.Type().Field(i).Name
		switch {
		case reflect.DeepEqual(g.Interface(), w.Interface()):
		case g.Kind() != reflect.Slice:
			t.Errorf("%s: %s %v, want %v", label, name, g, w)
		case g.Len() != w.Len():
			t.Fatalf("%s: %s over %d entries, want %d", label, name, g.Len(), w.Len())
		default:
			for j := 0; j < w.Len(); j++ {
				if g.Index(j).Interface() != w.Index(j).Interface() {
					t.Fatalf("%s: %s[%d] = %v, want %v", label, name, j, g.Index(j), w.Index(j))
				}
			}
		}
	}
}

// assertSameTable compares two holders' cores over want's vertex space;
// got may have seen a larger one (churn keeps deleted ids), in which case
// the surplus vertices must be isolated.
func assertSameTable(t testing.TB, label string, got, want *cutTable) {
	t.Helper()
	n := len(want.masters)
	assertTablesEqual(t, label, viewOf(got, n), viewOf(want, n))
	for v := n; v < len(got.masters); v++ {
		if got.Master(graph.VertexID(v)) != -1 || got.Replicas(graph.VertexID(v)) != 0 {
			t.Fatalf("%s: vertex %d beyond the reference has master %d / %d replicas",
				label, v, got.Master(graph.VertexID(v)), got.Replicas(graph.VertexID(v)))
		}
	}
}

// assertMatchesOracle checks a materialized Assignment — placements and
// table — against the oracle.
func assertMatchesOracle(t testing.TB, label string, a *Assignment, o *oracle.Cut) {
	t.Helper()
	assertPlacedAsOracle(t, label, a, o)
	assertTablesEqual(t, label, viewOf(&a.cutTable, len(o.Masters)), cutView(o))
}

// assertPlacedAsOracle checks an Assignment's placements and replica bits
// against the oracle's, and that its exported fields are the core's own
// slices.
func assertPlacedAsOracle(t testing.TB, label string, a *Assignment, o *oracle.Cut) {
	t.Helper()
	if !slices.Equal(a.EdgeParts, o.Parts) {
		t.Fatalf("%s: placements differ from the oracle's", label)
	}
	if len(a.Masters) != len(o.Masters) || len(a.EdgeCount) != o.NumParts ||
		(len(a.Masters) > 0 && &a.Masters[0] != &a.masters[0]) || &a.EdgeCount[0] != &a.q.EdgeCounts()[0] {
		t.Fatalf("%s: exported Masters/EdgeCount do not alias the core", label)
	}
	for v := range graph.VertexID(len(o.Masters)) {
		reps, _, _ := a.Rows(v)
		for p := range o.NumParts {
			if has := reps[p/64]>>(p%64)&1 == 1; has != o.Holds(v, p) {
				t.Fatalf("%s: vertex %d has a replica on part %d: %v, oracle says %v", label, v, p, has, o.Holds(v, p))
			}
		}
	}
}
