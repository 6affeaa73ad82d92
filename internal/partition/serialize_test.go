package partition

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"graphpart/internal/gen"
)

func TestAssignmentRoundTrip(t *testing.T) {
	g := gen.PrefAttach("ser", 1500, 5, 0x31)
	orig, err := Partition(g, Hybrid{Threshold: 30}, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != orig.Strategy || got.NumParts != orig.NumParts || got.Passes != orig.Passes {
		t.Fatalf("metadata mismatch: %+v vs %+v", got.Strategy, orig.Strategy)
	}
	for i := range orig.EdgeParts {
		if got.EdgeParts[i] != orig.EdgeParts[i] {
			t.Fatalf("edge %d part %d != %d", i, got.EdgeParts[i], orig.EdgeParts[i])
		}
	}
	for v := range orig.Masters {
		if got.Masters[v] != orig.Masters[v] {
			t.Fatalf("vertex %d master %d != %d", v, got.Masters[v], orig.Masters[v])
		}
	}
	if got.ReplicationFactor() != orig.ReplicationFactor() {
		t.Fatalf("RF %v != %v", got.ReplicationFactor(), orig.ReplicationFactor())
	}
}

func TestAssignmentFileRoundTrip(t *testing.T) {
	g := gen.RoadNet("ser-road", 20, 20, 0x31)
	orig, err := Partition(g, Oblivious{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "asg.bin")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplicationFactor() != orig.ReplicationFactor() {
		t.Fatalf("RF mismatch after file round trip")
	}
	if got.EdgeBalance() != orig.EdgeBalance() {
		t.Fatalf("balance mismatch after file round trip")
	}
}

func TestReadAssignmentValidation(t *testing.T) {
	g := gen.RoadNet("ser-v", 10, 10, 1)
	other := gen.RoadNet("ser-w", 12, 12, 2)
	a, err := Partition(g, Random{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAssignment(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted assignment against the wrong graph")
	}
	if _, err := ReadAssignment(g, bytes.NewReader([]byte("garbage data here....."))); err == nil {
		t.Error("accepted garbage input")
	}
	if _, err := ReadAssignment(g, bytes.NewReader(buf.Bytes()[:20])); err == nil {
		t.Error("accepted truncated input")
	}
	// A hostile header: numParts (bytes 8..15) sizes three |V|×⌈numParts/64⌉
	// matrices, so it must be refused before anything is allocated.
	for _, numParts := range []uint64{0, 1 << 40} {
		crafted := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(crafted[8:16], numParts)
		_, err := ReadAssignment(g, bytes.NewReader(crafted))
		if err == nil || !strings.Contains(err.Error(), "implausible partition count") {
			t.Errorf("numParts=%d in the header: got %v, want an implausible-partition-count error", numParts, err)
		}
	}
}

func TestLoadedAssignmentKeepsStrategyIdentity(t *testing.T) {
	g := gen.RoadNet("ser-x", 10, 10, 1)
	a, _ := Partition(g, Random{}, 4, 1)
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// A deserialized assignment carries the writer's strategy identity
	// without any Strategy implementation behind it: there is no
	// registered (or registrable) type to re-partition with.
	if got.Strategy != a.Strategy || got.Passes != a.Passes {
		t.Errorf("identity drifted: got %s/%d, want %s/%d", got.Strategy, got.Passes, a.Strategy, a.Passes)
	}
	if _, err := New(got.Strategy, Options{}); err != nil {
		t.Fatalf("writer strategy %s should still construct: %v", got.Strategy, err)
	}
}
