package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testGraph builds a small deterministic graph with hubs, isolated ids and
// duplicate edges — the shapes that break naive serialization.
func testGraph(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1}, {1, 2}, {2, 0}, {5, 1}, {1, 5}, {0, 1}, // duplicate edge
		{7, 0}, {3, 3}, // self loop; vertex 4 and 6 stay isolated
	}
	return FromEdges("csr-test", edges)
}

func writeCSRBytes(t *testing.T, g *Graph, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSRVersion(g, &buf, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if got.NumVertices() != want.NumVertices() {
		t.Errorf("vertices %d, want %d", got.NumVertices(), want.NumVertices())
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Errorf("edge lists differ:\n got %v\nwant %v", got.Edges, want.Edges)
	}
	gotIn, gotOut := got.Adjacency()
	wantIn, wantOut := want.Adjacency()
	for v := 0; v < want.NumVertices(); v++ {
		id := VertexID(v)
		if got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) {
			t.Errorf("vertex %d: degree (%d,%d), want (%d,%d)",
				v, got.OutDegree(id), got.InDegree(id), want.OutDegree(id), want.InDegree(id))
		}
		gotNbrs := gotOut.Neighbors[gotOut.Index[v]:gotOut.Index[v+1]]
		wantNbrs := wantOut.Neighbors[wantOut.Index[v]:wantOut.Index[v+1]]
		if !reflect.DeepEqual(gotNbrs, wantNbrs) {
			t.Errorf("vertex %d: out-neighbors %v, want %v", v, gotNbrs, wantNbrs)
		}
		gotIDs := gotIn.EdgeIDs[gotIn.Index[v]:gotIn.Index[v+1]]
		wantIDs := wantIn.EdgeIDs[wantIn.Index[v]:wantIn.Index[v+1]]
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Errorf("vertex %d: in-edge ids %v, want %v", v, gotIDs, wantIDs)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	g := testGraph(t)
	got, err := decodeCSRData("stream", writeCSRBytes(t, g, CSRVersion1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The written file includes CSR sections; the loaded graph must have
	// them attached (EnsureCSR is then free) and identical to a rebuild.
	if got.outIndex == nil {
		t.Error("loaded graph is missing the prebuilt CSR sections")
	}
	assertSameGraph(t, g, got)
}

func TestCSRRoundTripEmptyGraph(t *testing.T) {
	g := FromEdges("empty", nil)
	got, err := decodeCSRData("stream", writeCSRBytes(t, g, CSRVersion1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Errorf("got |V|=%d |E|=%d, want empty", got.NumVertices(), got.NumEdges())
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.csrg")
	if err := SaveCSRVersion(g, path, CSRVersion1); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, got)
}

// TestCSRCorruptionDetection covers the failure modes the format must catch:
// truncation at every interesting boundary, a wrong magic, an unsupported
// version, unknown flags, payload bit flips (checksum), lying vertex counts
// and a file that declares vertices but holds no edges. Rows marked streamed
// must also be refused, with the same message, by streamCSR and StreamFile;
// the others the stream reports in its own words, or (trailing bytes) cannot
// see.
func TestCSRCorruptionDetection(t *testing.T) {
	g := testGraph(t)
	data := writeCSRBytes(t, g, CSRVersion1)
	edgeless := edgelessCSR(t, CSRVersion1)

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantErr  string
		streamed bool
	}{
		{"empty file", func(b []byte) []byte { return nil }, "truncated header", false},
		{"truncated header", func(b []byte) []byte { return b[:10] }, "truncated header", false},
		{"truncated name", func(b []byte) []byte { return b[:csrHeaderFixed+2] }, "truncated header name", false},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }, "truncated or oversized", false},
		{"missing footer", func(b []byte) []byte { return b[:len(b)-4] }, "truncated or oversized", false},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xff) }, "truncated or oversized", false},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic", false}, // StreamFile reads it as text
		{"wrong version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		}, "unsupported format version", true},
		{"unknown flags", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0x80)
			return b
		}, "unknown flags", true},
		{"flipped payload bit", func(b []byte) []byte {
			b[len(b)-5] ^= 0x40 // last payload byte, just before the footer
			return b
		}, "checksum mismatch", true},
		{"version zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 0)
			return b
		}, "unsupported format version", true},
		{"version from the future", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], CSRVersion2+1)
			return b
		}, "unsupported format version", true},
		{"vertex count lies low", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 2) // real max id is 7
			return b
		}, "", true},
		{"vertex count lies high", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1000)
			return b
		}, "", true},
		{"vertices with no edges", func([]byte) []byte { return edgeless }, "5 vertices with no edges", true},
	}
	path := filepath.Join(t.TempDir(), "corrupt.csrg")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), data...))
			loaders := map[string]func() error{
				"decodeCSRData": func() error { _, err := decodeCSRData("stream", buf, nil); return err },
			}
			if tc.streamed {
				if err := os.WriteFile(path, buf, 0o644); err != nil {
					t.Fatal(err)
				}
				loaders["streamCSR"] = func() error {
					_, _, err := streamCSR("corrupt", bytes.NewReader(buf), 0, func(int64, []Edge) error { return nil })
					return err
				}
				loaders["StreamFile"] = func() error {
					_, _, err := StreamFile(path, 0, func(int64, []Edge) error { return nil })
					return err
				}
			}
			for how, load := range loaders {
				err := load()
				if err == nil {
					t.Fatalf("%s accepted the corrupt file", how)
				}
				if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s: error %q does not mention %q", how, err, tc.wantErr)
				}
			}
		})
	}
}

// edgelessCSR is the streaming writer's file for no edges with its header
// raised to five vertices (the header is outside the checksum). Writers
// derive the vertex set from edges, so every loader must refuse it.
func edgelessCSR(t *testing.T, version int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edgeless.csrg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewCSRWriterVersion(f, "edgeless", version)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[8:16], 5)
	return b
}

func TestCSRWriterStreamsWithoutMaterializing(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "streamed.csrg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewCSRWriterVersion(f, g.Name, CSRVersion1)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in uneven batches to exercise chunk boundaries.
	for i := 0; i < len(g.Edges); i += 3 {
		end := i + 3
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		if err := w.Append(g.Edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Streamed files carry no CSR sections: adjacency is rebuilt lazily.
	if got.outIndex != nil {
		t.Error("streamed file unexpectedly carries CSR sections")
	}
	assertSameGraph(t, g, got)
}

func TestStreamCSRMatchesEdgeOrder(t *testing.T) {
	g := testGraph(t)
	data := writeCSRBytes(t, g, CSRVersion1)
	var streamed []Edge
	total, maxID, err := streamCSR("t", bytes.NewReader(data), 3, func(offset int64, edges []Edge) error {
		if int(offset) != len(streamed) {
			t.Errorf("batch offset %d, want %d", offset, len(streamed))
		}
		streamed = append(streamed, edges...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(g.Edges)) || int(maxID) != g.NumVertices()-1 {
		t.Errorf("totals (%d, %d), want (%d, %d)", total, maxID, len(g.Edges), g.NumVertices()-1)
	}
	if !reflect.DeepEqual(streamed, g.Edges) {
		t.Errorf("streamed edges %v, want %v", streamed, g.Edges)
	}
}

func TestStreamCSRDetectsTruncationAndCorruption(t *testing.T) {
	g := testGraph(t)
	data := writeCSRBytes(t, g, CSRVersion1)

	if _, _, err := streamCSR("t", bytes.NewReader(data[:len(data)-2]), 0, func(int64, []Edge) error { return nil }); err == nil {
		t.Error("truncated stream accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-6] ^= 1 // inside the CSR sections
	if _, _, err := streamCSR("t", bytes.NewReader(flipped), 0, func(int64, []Edge) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted stream: got %v, want checksum error", err)
	}
}

// TestLoadFileSniffsFormat pins the dispatch contract of the unified
// loaders: the same graph loads identically from text and binary files, and
// the streaming entry point sees identical edges from both.
func TestLoadFileSniffsFormat(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	binPath := filepath.Join(dir, "g.csrg")
	if err := SaveEdgeList(g, textPath); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSRVersion(g, binPath, CSRVersion1); err != nil {
		t.Fatal(err)
	}

	fromText, err := LoadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText.Edges, fromBin.Edges) {
		t.Errorf("text and binary loads disagree:\n text %v\n bin  %v", fromText.Edges, fromBin.Edges)
	}
	if fromText.NumVertices() != fromBin.NumVertices() {
		t.Errorf("vertex counts disagree: %d vs %d", fromText.NumVertices(), fromBin.NumVertices())
	}

	collect := func(path string) []Edge {
		var out []Edge
		if _, _, err := StreamFile(path, 2, func(_ int64, edges []Edge) error {
			out = append(out, edges...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if tEdges, bEdges := collect(textPath), collect(binPath); !reflect.DeepEqual(tEdges, bEdges) {
		t.Errorf("StreamFile disagrees between formats:\n text %v\n bin  %v", tEdges, bEdges)
	}
}

func TestIsCSRPath(t *testing.T) {
	for path, want := range map[string]bool{
		"g.csrg": true, "G.CSRG": true, "dir/road.s2.csrg": true,
		"g.txt": false, "csrg": false, "g.csrg.txt": false,
	} {
		if got := IsCSRPath(path); got != want {
			t.Errorf("IsCSRPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestCSRFileBytesPinned pins every writer's output byte for byte: the bulk
// and the streaming writer at both versions, over the small testGraph and a
// two-block graph. Streamed v2 must equal bulk v2; streamed v1 differs from
// bulk v1 only in carrying no adjacency sections. A changed digest is a
// change of file format.
func TestCSRFileBytesPinned(t *testing.T) {
	const (
		smallV1        = "bbee5cc4db761bdf70688e584ef9d6aad265a3114e68a759d51f4d1178c0c4e4"
		smallV2        = "a84fe2a33024cf8cff074f743ce4b12ffebb19e1c7bb675548c2100c73c5883a"
		smallStreamV1  = "311720c974fb5b550f4cdf8d1de3796bbd30011f4169d475e604a28b2c2be76f"
		twoBlkV1       = "01d0d5a9365006350da370010f0835131dd31666927b145d7f2b79056fd30803"
		twoBlkV2       = "2b5737981751d2ad0fb7dbb96066a91b410e107fee55a5e3e6662acc7eda2699"
		twoBlkStreamV1 = "79ea00760a7b3c40feda2f7586eaf40c99d8558bc995571979bebf22db377142"
	)
	streamed := func(g *Graph, version int) []byte {
		f, err := os.Create(filepath.Join(t.TempDir(), "g.csrg"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := NewCSRWriterVersion(f, g.Name, version)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(g.Edges); i += 1000 {
			if err := w.Append(g.Edges[i:min(i+1000, len(g.Edges))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, twoBlk := testGraph(t), blockGraph(t, csrV2BlockEdges+4567)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"small/v1", writeCSRBytes(t, small, CSRVersion1), smallV1},
		{"small/v2", writeCSRBytes(t, small, CSRVersion2), smallV2},
		{"small/stream-v1", streamed(small, CSRVersion1), smallStreamV1},
		{"small/stream-v2", streamed(small, CSRVersion2), smallV2},
		{"two-block/v1", writeCSRBytes(t, twoBlk, CSRVersion1), twoBlkV1},
		{"two-block/v2", writeCSRBytes(t, twoBlk, CSRVersion2), twoBlkV2},
		{"two-block/stream-v1", streamed(twoBlk, CSRVersion1), twoBlkStreamV1},
		{"two-block/stream-v2", streamed(twoBlk, CSRVersion2), twoBlkV2},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.data)); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
