package partition

import (
	"errors"
	"strings"
	"testing"

	"graphpart/internal/graph"
)

// checkFeedAfterFinish: once Finish has derived the summary the builder
// refuses further edges with ErrFeedAfterFinish, and Finish stays
// idempotent — same summary, the late Feed not leaked in.
func checkFeedAfterFinish(t *testing.T, workers int) {
	sb, err := NewShardedStreamBuilder(random, 4, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	sum, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumEdges != 1 {
		t.Fatalf("summary has %d edges, want 1", sum.NumEdges)
	}
	err = sb.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 1, Dst: 2}}})
	if !errors.Is(err, ErrFeedAfterFinish) {
		t.Fatalf("Feed after Finish: got %v, want ErrFeedAfterFinish", err)
	}
	again, err := sb.Finish()
	if err != nil || again != sum || again.NumEdges != 1 {
		t.Fatalf("second Finish: %v, a different summary or %d edges (want the same one, 1 edge)", err, again.NumEdges)
	}
}

// One worker goroutine: the sequential case of the one builder.
func TestStreamBuilderFeedAfterFinish(t *testing.T) { checkFeedAfterFinish(t, 1) }

func TestShardedFeedAfterFinish(t *testing.T) { checkFeedAfterFinish(t, 2) }

func TestShardedRejectsNonStateless(t *testing.T) {
	_, err := NewShardedStreamBuilder(MustNew("HDRF", Options{}), 4, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "StreamingStrategy") {
		t.Fatalf("HDRF: got %v, want error naming StreamingStrategy", err)
	}
	_, err = NewShardedStreamBuilder(MustNew("Hybrid", Options{}), 4, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "MultiPassStrategy") {
		t.Fatalf("Hybrid: got %v, want error naming MultiPassStrategy", err)
	}
	if _, err := NewShardedStreamBuilder(MustNew("Grid", Options{}), 9, 2, 1); err != nil {
		t.Fatalf("stateless strategy rejected: %v", err)
	}
}
