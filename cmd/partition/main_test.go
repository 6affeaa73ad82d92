package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestListStrategiesGolden pins the -strategies listing byte-for-byte: all
// 16 registered strategies must appear with the capability class derived
// from their declared ingress capability. A new strategy, a renamed one, or
// a capability change all surface here as a golden diff (refresh with
// `go test ./cmd/partition -run ListStrategies -update`).
func TestListStrategiesGolden(t *testing.T) {
	var sb strings.Builder
	listStrategies(&sb, 9, 30) // the CLI's default -parts and -hybrid-threshold
	got := sb.String()

	for _, name := range partition.AllNames() {
		if !strings.Contains(got, name+"  ") {
			t.Errorf("listing missing strategy %q", name)
		}
	}
	if n := strings.Count(got, "\n"); n != len(partition.AllNames())+1 {
		t.Errorf("listing has %d lines, want header + %d strategies", n, len(partition.AllNames()))
	}

	golden := filepath.Join("testdata", "strategies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-strategies output drifted from golden (run with -update to refresh):\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunChurnRendersWindowsAndSummary(t *testing.T) {
	g := gen.PrefAttach("pa", 1500, 4, 3)
	var sb strings.Builder
	err := runChurn(&sb, g, partition.MustNew("HDRF", partition.Options{Loaders: 1}), churnOptions{
		Parts: 8, Seed: 1, Windows: 4, DelFrac: 0.2, Rebalance: 1.3, Hot: 8, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"window 0:", "window 3:", "replication factor:", "edge balance:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "window 4:") {
		t.Errorf("more windows than requested:\n%s", out)
	}
}

func TestRunChurnDeterministic(t *testing.T) {
	g := gen.RoadNet("road", 20, 20, 2)
	render := func() string {
		var sb strings.Builder
		if err := runChurn(&sb, g, partition.MustNew("2D", partition.Options{}), churnOptions{
			Parts: 9, Seed: 5, Windows: 3, DelFrac: 0.3, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("churn replay not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestRunChurnMultiPassRepartitions(t *testing.T) {
	g := gen.PrefAttach("pa", 800, 3, 1)
	var sb strings.Builder
	err := runChurn(&sb, g, partition.MustNew("Hybrid", partition.Options{HybridThreshold: 30}), churnOptions{
		Parts: 8, Seed: 1, Windows: 2, DelFrac: 0.1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(repartitioned)") {
		t.Errorf("multi-pass churn should note per-window repartitioning:\n%s", sb.String())
	}
}

// TestRunStreamWorkerIndependent: -stream goes through the one stream
// builder, so -workers changes wall-clock only — the rendered block,
// per-partition table included, is byte-equal at 1 and 3 workers and
// reports the materialized path's replication factor. The graph spans
// several graph.DefaultBatchSize batches, so the workers share the stream.
func TestRunStreamWorkerIndependent(t *testing.T) {
	g := gen.PrefAttach("pa", 70000, 4, 7)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeList(g, path); err != nil {
		t.Fatal(err)
	}
	s := partition.MustNew("Grid", partition.Options{})
	render := func(workers int) string {
		var sb strings.Builder
		if err := runStream(&sb, s, path, 9, 1, workers, true, ""); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sb.String()
	}
	one, three := render(1), render(3)
	if one != three {
		t.Errorf("-stream output differs between -workers 1 and -workers 3:\n%s\n---\n%s", one, three)
	}
	a, err := partition.Partition(g, s, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("replication factor:  %.4f\n", a.ReplicationFactor()); !strings.Contains(one, want) {
		t.Errorf("streamed output lacks the materialized %q:\n%s", want, one)
	}
}

// TestRunStreamNamesCapability: strategies that cannot stream are refused
// by the builder itself, with the capability that rules them out named.
func TestRunStreamNamesCapability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeList(gen.RoadNet("road", 5, 5, 1), path); err != nil {
		t.Fatal(err)
	}
	for name, capability := range map[string]string{"HDRF": "StreamingStrategy", "Hybrid": "MultiPassStrategy"} {
		var sb strings.Builder
		err := runStream(&sb, partition.MustNew(name, partition.Options{}), path, 9, 1, 2, false, "")
		if err == nil || !strings.Contains(err.Error(), capability) {
			t.Errorf("%s: got %v, want a refusal naming %s", name, err, capability)
		}
		if sb.Len() != 0 {
			t.Errorf("%s: refused run still printed:\n%s", name, sb.String())
		}
	}
	if err := runStream(io.Discard, partition.MustNew("Grid", partition.Options{}), "", 9, 1, 1, false, ""); err == nil {
		t.Error("-stream without -input accepted")
	}
}

// TestChurnFlagsThatCannotTakeEffectAreRefused runs the binary in a child
// process: each churn flag that would do nothing must exit 1 naming itself
// and its value, before the graph loads or anything prints. So must -input
// beside -dataset, naming both, -stream without -input, and a NaN
// -mem-budget, which HEP's clamp would let through.
func TestChurnFlagsThatCannotTakeEffectAreRefused(t *testing.T) {
	if args := os.Getenv("PARTITION_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"partition"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ flags, want string }{
		{"-churn 3 -rebalance 0.5", "-rebalance 0.5"},
		{"-churn 3 -rebalance 1", "-rebalance 1"},
		{"-churn 3 -hot -5", "-hot -5"},
		{"-churn -2", "-churn -2"},
		{"-rebalance 1.2", "-rebalance 1.2"},
		{"-hot 8", "-hot 8"},
		{"-churn 3 -stream", "-churn 3"},
		{"-input graph.txt", "-input and -dataset"},
		{"-input graph.txt -stream", "-input and -dataset"},
		{"-stream", "need -input FILE"},
		{"-strategy HEP -mem-budget NaN", "-mem-budget NaN"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChurnFlagsThatCannotTakeEffectAreRefused$")
		cmd.Env = append(os.Environ(), "PARTITION_MAIN_ARGS=-dataset road-ca -strategy Random -parts 4 "+tc.flags)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("partition %s: %v, stderr %q, stdout %q; want exit 1 naming %q and no output",
				tc.flags, err, stderr.String(), stdout.String(), tc.want)
		}
	}
	for _, ok := range []churnOptions{{}, {Windows: 3}, {Windows: 3, Rebalance: 1.2, Hot: 64}} {
		if err := ok.check(false); err != nil {
			t.Errorf("%+v refused: %v", ok, err)
		}
	}
}

// TestClusterFor: -machines must describe a cluster the assignment fits —
// machines × partitions-per-machine = -parts — or be refused naming both.
func TestClusterFor(t *testing.T) {
	for _, tc := range []struct {
		parts, machines int
		wantMachines    int // 0 = rejected
	}{
		{9, 0, 9}, {9, 9, 9}, {16, 4, 4},
		{9, 16, 0}, {10, 4, 0}, {9, -1, 0},
	} {
		cc, err := clusterFor(tc.parts, tc.machines)
		if tc.wantMachines == 0 {
			for _, n := range []int{tc.parts, tc.machines} {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(n)) {
					t.Errorf("clusterFor(%d, %d) = %+v, %v; want an error naming %d", tc.parts, tc.machines, cc, err, n)
				}
			}
			continue
		}
		if err != nil || cc.Machines != tc.wantMachines || cc.NumParts() != tc.parts {
			t.Errorf("clusterFor(%d, %d) = %+v, %v; want %d machines hosting %d partitions",
				tc.parts, tc.machines, cc, err, tc.wantMachines, tc.parts)
		}
	}
}
