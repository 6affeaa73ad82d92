package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"graphpart/internal/graph"
)

// Serialization of edge assignments supports the paper's partition-reuse
// scenario (§5.4.3): "when a graph may be partitioned, saved to disk, and
// reused later … lower replication factor should be the priority". The
// format stores only what cannot be rederived — the per-edge partition ids
// and master hints — and is rebuilt against the original graph on load.

// fileMagic identifies the assignment file format.
var fileMagic = [8]byte{'g', 'p', 'a', 's', 'g', 'n', '0', '1'}

// maxFileParts bounds the partition count ReadAssignment accepts from a
// file header — far above any cluster the paper or the experiments model.
const maxFileParts = 1 << 16

// Encode serializes the assignment. The graph itself is not stored; the
// caller must Load against the same graph (validated by edge count).
func (a *Assignment) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	header := []uint64{
		uint64(a.NumParts),
		uint64(len(a.EdgeParts)),
		uint64(len(a.Masters)),
		uint64(a.Passes),
	}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(a.Strategy))); err != nil {
		return err
	}
	if _, err := bw.WriteString(a.Strategy); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, a.EdgeParts); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, a.Masters); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadAssignment deserializes an assignment saved by Encode and rebuilds
// the replica sets and metrics against g.
func ReadAssignment(g *graph.Graph, r io.Reader) (*Assignment, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("partition: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("partition: not an assignment file (magic %q)", magic)
	}
	var numParts, numEdges, numVerts, passes uint64
	for _, p := range []*uint64{&numParts, &numEdges, &numVerts, &passes} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("partition: reading header: %w", err)
		}
	}
	// The header is outside input: newAssignment sizes three matrices of
	// |V|·⌈numParts/64⌉ words from it, so bound it before anything allocates.
	if numParts < 1 || numParts > maxFileParts {
		return nil, fmt.Errorf("partition: implausible partition count %d (want 1..%d)", numParts, maxFileParts)
	}
	if int(numEdges) != g.NumEdges() {
		return nil, fmt.Errorf("partition: assignment has %d edges but graph has %d", numEdges, g.NumEdges())
	}
	if int(numVerts) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment has %d vertices but graph has %d", numVerts, g.NumVertices())
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("partition: implausible strategy-name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	edgeParts := make([]int32, numEdges)
	if err := binary.Read(br, binary.LittleEndian, edgeParts); err != nil {
		return nil, fmt.Errorf("partition: reading edge parts: %w", err)
	}
	masters := make([]int32, numVerts)
	if err := binary.Read(br, binary.LittleEndian, masters); err != nil {
		return nil, fmt.Errorf("partition: reading masters: %w", err)
	}

	// Rebuild through the standard constructor for full validation.
	return newAssignment(g, string(name), int(passes), int(numParts), 0, &Result{EdgeParts: edgeParts, MasterHint: masters}, 1)
}

// SaveFile writes the assignment to path.
func (a *Assignment) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an assignment for g from path.
func LoadFile(g *graph.Graph, path string) (*Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAssignment(g, f)
}
