package partition

import (
	"testing"

	"graphpart/internal/graph"
	"graphpart/internal/hashing"
)

// oracleCut is the test-side reference the one ingress driver and the one
// stream builder are checked against now that no separate sequential driver
// exists. It shares no code with them: placements come from one Assigner
// over g.Edges in order (stateless), one Loader per loaderBlock in order
// (streaming) or the strategy's own Partition (multi-pass), and the
// bookkeeping is plain slices — no bitMatrix, no metrics.Quality, no
// chooseMaster.
type oracleCut struct {
	numParts  int
	parts     []int32
	masters   []int32
	replicas  []int   // images per vertex
	edgeCount []int64 // edges per partition
	images    []int64 // images per partition
	total     int64   // images overall
	placed    int64   // vertices with ≥1 image
}

func buildOracle(t testing.TB, s Strategy, g *graph.Graph, numParts int, seed uint64) *oracleCut {
	t.Helper()
	n, m := g.NumVertices(), g.NumEdges()
	o := &oracleCut{
		numParts:  numParts,
		parts:     make([]int32, m),
		masters:   make([]int32, n),
		replicas:  make([]int, n),
		edgeCount: make([]int64, numParts),
		images:    make([]int64, numParts),
	}
	var hint []int32
	switch impl := s.(type) {
	case StatelessStrategy:
		asg, err := impl.NewAssigner(numParts, seed)
		if err != nil {
			t.Fatalf("%s: oracle assigner: %v", s.Name(), err)
		}
		for i, e := range g.Edges {
			o.parts[i] = asg.Assign(e)
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
			ld := impl.NewLoader(n, numParts, id, seed)
			for i := lo; i < hi; i++ {
				o.parts[i] = ld.Assign(g.Edges[i])
			}
		}
	default:
		res, err := s.Partition(g, numParts, seed)
		if err != nil {
			t.Fatalf("%s: oracle partition: %v", s.Name(), err)
		}
		copy(o.parts, res.EdgeParts)
		hint = res.MasterHint
	}

	holds := make([][]bool, n) // holds[v][p]: partition p has an image of v
	touch := func(v graph.VertexID, p int32) {
		if holds[v] == nil {
			holds[v] = make([]bool, numParts)
		}
		holds[v][p] = true
	}
	for i, e := range g.Edges {
		p := o.parts[i]
		if p < 0 || int(p) >= numParts {
			t.Fatalf("%s: oracle placed edge %d on partition %d (numParts=%d)", s.Name(), i, p, numParts)
		}
		o.edgeCount[p]++
		touch(e.Src, p)
		touch(e.Dst, p)
	}
	for v := 0; v < n; v++ {
		var on []int32
		for p, ok := range holds[v] {
			if ok {
				on = append(on, int32(p))
				o.images[p]++
			}
		}
		o.replicas[v] = len(on)
		if len(on) == 0 {
			o.masters[v] = -1
			continue
		}
		o.placed++
		o.total += int64(len(on))
		// The master rule (§5.1.1 made deterministic): the hint when it
		// holds an image, else a seeded hash over the ascending image list.
		o.masters[v] = on[hashing.Vertex(seed^0xa57e, graph.VertexID(v))%uint64(len(on))]
		if len(hint) == n && hint[v] >= 0 && int(hint[v]) < numParts && holds[v][hint[v]] {
			o.masters[v] = hint[v]
		}
	}
	return o
}

func (o *oracleCut) rf() float64 {
	if o.placed == 0 {
		return 0
	}
	return float64(o.total) / float64(o.placed)
}

func (o *oracleCut) balance() float64 {
	var most, sum int64
	for _, c := range o.edgeCount {
		most = max(most, c)
		sum += c
	}
	if sum == 0 {
		return 1
	}
	return float64(most) / (float64(sum) / float64(o.numParts))
}

// tableView is the read surface of the cutTable core, captured as plain
// values so the three holders (Assignment, StreamSummary, PartitionState)
// and the oracle are all compared by the one assertTablesEqual below: a
// field added here is checked for every holder or for none.
type tableView struct {
	masters   []int32
	replicas  []int // images per vertex
	edgeCount []int64
	images    []int64 // images per partition
	total     int64
	rf        float64
	balance   float64
}

// viewOf reads a holder's core over its first n vertices.
func viewOf(c *cutTable, n int) tableView {
	v := tableView{
		masters:   make([]int32, n),
		replicas:  make([]int, n),
		edgeCount: c.Quality().EdgeCounts(),
		images:    make([]int64, c.numParts),
		total:     c.TotalReplicas(),
		rf:        c.ReplicationFactor(),
		balance:   c.EdgeBalance(),
	}
	for i := 0; i < n; i++ {
		v.masters[i] = int32(c.Master(graph.VertexID(i)))
		v.replicas[i] = c.Replicas(graph.VertexID(i))
	}
	for p := range v.images {
		v.images[p] = c.ReplicasOnPart(p)
	}
	return v
}

func (o *oracleCut) view() tableView {
	return tableView{
		masters: o.masters, replicas: o.replicas, edgeCount: o.edgeCount,
		images: o.images, total: o.total, rf: o.rf(), balance: o.balance(),
	}
}

func assertTablesEqual(t testing.TB, label string, got, want tableView) {
	t.Helper()
	if len(got.masters) != len(want.masters) || len(got.edgeCount) != len(want.edgeCount) {
		t.Fatalf("%s: table over %d vertices × %d parts, want %d × %d",
			label, len(got.masters), len(got.edgeCount), len(want.masters), len(want.edgeCount))
	}
	for p := range want.edgeCount {
		if got.edgeCount[p] != want.edgeCount[p] {
			t.Errorf("%s: part %d holds %d edges, want %d", label, p, got.edgeCount[p], want.edgeCount[p])
		}
		if got.images[p] != want.images[p] {
			t.Errorf("%s: part %d holds %d images, want %d", label, p, got.images[p], want.images[p])
		}
	}
	if got.total != want.total {
		t.Errorf("%s: %d total replicas, want %d", label, got.total, want.total)
	}
	if got.rf != want.rf {
		t.Errorf("%s: RF %v, want %v", label, got.rf, want.rf)
	}
	if got.balance != want.balance {
		t.Errorf("%s: balance %v, want %v", label, got.balance, want.balance)
	}
	for v := range want.masters {
		if got.masters[v] != want.masters[v] {
			t.Fatalf("%s: vertex %d master %d, want %d", label, v, got.masters[v], want.masters[v])
		}
		if got.replicas[v] != want.replicas[v] {
			t.Fatalf("%s: vertex %d has %d replicas, want %d", label, v, got.replicas[v], want.replicas[v])
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
func assertMatchesOracle(t testing.TB, label string, a *Assignment, o *oracleCut) {
	t.Helper()
	if len(a.EdgeParts) != len(o.parts) {
		t.Fatalf("%s: %d placements, oracle has %d", label, len(a.EdgeParts), len(o.parts))
	}
	for i := range o.parts {
		if a.EdgeParts[i] != o.parts[i] {
			t.Fatalf("%s: edge %d on partition %d, oracle says %d", label, i, a.EdgeParts[i], o.parts[i])
		}
	}
	// The exported fields must be the core's own slices, not stale copies.
	if len(a.Masters) != len(o.masters) || len(a.EdgeCount) != o.numParts ||
		(len(a.Masters) > 0 && &a.Masters[0] != &a.masters[0]) || &a.EdgeCount[0] != &a.q.EdgeCounts()[0] {
		t.Fatalf("%s: exported Masters/EdgeCount do not alias the core", label)
	}
	assertTablesEqual(t, label, viewOf(&a.cutTable, len(o.masters)), o.view())
}
