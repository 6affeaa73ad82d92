package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// blockGraph builds a deterministic graph big enough to span several v2
// blocks, with the mostly-source-sorted, locality-heavy shape real edge
// streams have (plus deliberate backward jumps to exercise zigzag).
func blockGraph(t testing.TB, numEdges int) *Graph {
	t.Helper()
	edges := make([]Edge, numEdges)
	n := uint32(numEdges/4 + 2)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src := uint32(i) / 4 % n
		dst := (src + uint32(x%64)) % n
		if x%11 == 0 {
			dst = uint32(x>>32) % n // occasional long-range jump
		}
		edges[i] = Edge{src, dst}
	}
	return FromEdges("block-test", edges)
}

// refixV2CRC recomputes the checksum footer of a v2 file after a test
// mutated its payload, so the decoder's own validation — not the CRC — is
// what must catch the corruption.
func refixV2CRC(b []byte) []byte {
	hl := csrHeaderFixed + int(binary.LittleEndian.Uint32(b[24:28]))
	crc := crc32.Checksum(b[hl+4:len(b)-4], castagnoli)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

func TestCSRv2RoundTrip(t *testing.T) {
	for _, numEdges := range []int{0, 1, 7, csrV2BlockEdges, csrV2BlockEdges + 1, 3*csrV2BlockEdges + 17} {
		t.Run(fmt.Sprint(numEdges), func(t *testing.T) {
			var g *Graph
			if numEdges == 0 {
				g = FromEdges("block-test", nil)
			} else {
				g = blockGraph(t, numEdges)
			}
			data := writeCSRBytes(t, g, CSRVersion2)
			got, err := decodeCSRData("stream", data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.outIndex != nil {
				t.Error("v2 file unexpectedly carries CSR sections")
			}
			if got.Name != g.Name || got.NumVertices() != g.NumVertices() {
				t.Errorf("got %v, want %v", got, g)
			}
			if len(got.Edges) != len(g.Edges) || (numEdges > 0 && !reflect.DeepEqual(got.Edges, g.Edges)) {
				t.Error("edge lists differ after v2 round trip")
			}
		})
	}
}

func TestCSRv2FileRoundTripAllPaths(t *testing.T) {
	g := blockGraph(t, 2*csrV2BlockEdges+333)
	path := filepath.Join(t.TempDir(), "g.csrg")
	if err := SaveCSRVersion(g, path, CSRVersion2); err != nil {
		t.Fatal(err)
	}
	// The v2 decoder splits blocks across GOMAXPROCS workers and merges
	// their per-worker max IDs; serial and parallel pin both paths whatever
	// the host's CPU count (0 leaves GOMAXPROCS as it is).
	for _, tc := range []struct {
		name  string
		opts  CSRLoadOptions
		procs int
	}{
		{"auto", CSRLoadOptions{}, 0},
		{"portable", CSRLoadOptions{DisableMmap: true}, 0},
		{"serial", CSRLoadOptions{}, 1},
		{"parallel", CSRLoadOptions{}, 4},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		got, err := LoadCSRWith(path, tc.opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Edges, g.Edges) || got.NumVertices() != g.NumVertices() {
			t.Errorf("%s: loaded graph differs", tc.name)
		}
		// Nothing of a v2 graph aliases the file: a mapping made for the
		// load must be released, whether or not the host maps files.
		if got.mmap != nil {
			t.Errorf("%s: v2 load pinned a mapping", tc.name)
		}
	}
}

// TestCSRv2SmallerThanV1 pins the point of the format: on a stream with
// source locality the delta+varint blocks are far smaller than fixed-width
// records. The 25% acceptance bar for real datasets is gated in the
// load.formats experiment; here the shape is synthetic but representative.
func TestCSRv2SmallerThanV1(t *testing.T) {
	g := blockGraph(t, csrV2BlockEdges*2)
	var v1, v2 bytes.Buffer
	// Compare edge payloads only: strip v1's optional adjacency sections by
	// writing through the streaming writers (no sections either way).
	for _, w := range []struct {
		buf     *bytes.Buffer
		version int
	}{{&v1, CSRVersion1}, {&v2, CSRVersion2}} {
		f, err := os.CreateTemp(t.TempDir(), "csr")
		if err != nil {
			t.Fatal(err)
		}
		cw, err := NewCSRWriterVersion(f, g.Name, w.version)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Append(g.Edges); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := w.buf.ReadFrom(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if v2.Len() >= v1.Len()*3/4 {
		t.Errorf("v2 file is %d bytes vs v1 %d — want ≥25%% smaller", v2.Len(), v1.Len())
	}
}

func TestCSRWriterV2StreamsAndReloads(t *testing.T) {
	g := blockGraph(t, csrV2BlockEdges+4567)
	path := filepath.Join(t.TempDir(), "streamed.csrg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewCSRWriterVersion(f, g.Name, CSRVersion2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(g.Edges); i += 1000 {
		end := i + 1000
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
	if !reflect.DeepEqual(got.Edges, g.Edges) || got.Name != g.Name {
		t.Error("streamed v2 file reloads differently")
	}
}

func TestStreamCSRv2MatchesEdgeOrder(t *testing.T) {
	g := blockGraph(t, csrV2BlockEdges+999)
	data := writeCSRBytes(t, g, CSRVersion2)
	for _, batchSize := range []int{1000, csrV2BlockEdges, 1 << 20} {
		var streamed []Edge
		total, maxID, err := streamCSR("t", bytes.NewReader(data), batchSize, func(offset int64, edges []Edge) error {
			if int(offset) != len(streamed) {
				t.Errorf("b=%d: batch offset %d, want %d", batchSize, offset, len(streamed))
			}
			streamed = append(streamed, edges...)
			return nil
		})
		if err != nil {
			t.Fatalf("b=%d: %v", batchSize, err)
		}
		if total != int64(len(g.Edges)) || int(maxID) != g.NumVertices()-1 {
			t.Errorf("b=%d: totals (%d, %d), want (%d, %d)", batchSize, total, maxID, len(g.Edges), g.NumVertices()-1)
		}
		if !reflect.DeepEqual(streamed, g.Edges) {
			t.Errorf("b=%d: streamed edges differ from original order", batchSize)
		}
	}
}

// TestCSRv2CorruptionDetection is the v2 corruption matrix: every mutation
// must surface as a named error — never a panic, never silent acceptance —
// through the bulk loader, the mmap loader, and the streaming decoder, on a
// reader and on a file.
// Mutations below the checksum line call refixV2CRC so the structural
// validation itself is what trips.
func TestCSRv2CorruptionDetection(t *testing.T) {
	g := blockGraph(t, csrV2BlockEdges+100) // two blocks
	data := writeCSRBytes(t, g, CSRVersion2)
	hl := csrHeaderFixed + int(binary.LittleEndian.Uint32(data[24:28]))
	block0 := hl + 4 // first block header

	type corruption struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}
	cases := []corruption{
		// Truncations surface as "truncated block" from the streaming
		// decoder and as a checksum mismatch from the bulk loaders (the
		// cut shifts the CRC window); both are named rejections, so these
		// two cases only pin that *some* error comes back.
		{"truncated block payload", func(b []byte) []byte {
			return b[:block0+8+10]
		}, ""},
		{"truncated block header", func(b []byte) []byte {
			return b[:block0+5]
		}, ""},
		{"flipped payload bit", func(b []byte) []byte {
			b[block0+8+3] ^= 0x10
			return b
		}, "checksum mismatch"},
		{"bad varint", func(b []byte) []byte {
			// 0x80 continuation bytes forever: the varint never terminates
			// inside the block.
			for i := 0; i < 12; i++ {
				b[block0+8+i] = 0x80
			}
			return refixV2CRC(b)
		}, "varint"},
		{"wrong block length (short)", func(b []byte) []byte {
			bl := binary.LittleEndian.Uint32(b[block0+4:])
			binary.LittleEndian.PutUint32(b[block0+4:], bl-3)
			return refixV2CRC(b)
		}, "block"},
		{"wrong block length (overrun)", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[block0+4:], 1<<30)
			return refixV2CRC(b)
		}, "block"},
		{"block edge count lies high", func(b []byte) []byte {
			cnt := binary.LittleEndian.Uint32(b[block0:])
			binary.LittleEndian.PutUint32(b[block0:], cnt+5)
			return refixV2CRC(b)
		}, "block"},
		{"block edge count lies low", func(b []byte) []byte {
			cnt := binary.LittleEndian.Uint32(b[block0:])
			binary.LittleEndian.PutUint32(b[block0:], cnt-5)
			return refixV2CRC(b)
		}, ""},
		{"block count lies high", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hl:], 1<<20)
			return refixV2CRC(b)
		}, "block"},
		{"block count lies low", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hl:], 1)
			return refixV2CRC(b)
		}, ""},
		{"vertex count lies low", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 3)
			return b // header is outside the CRC
		}, "vertex range"},
		{"vertex count lies high", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<30)
			return b
		}, "max edge id"},
		{"flags on a v2 file", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], csrFlagHasCSR)
			return b
		}, "version 2 carries no flags"},
	}
	edgeless := edgelessCSR(t, CSRVersion2)
	cases = append(cases, corruption{"vertices with no edges", func([]byte) []byte { return edgeless }, "5 vertices with no edges"})
	// Block headers that lie about sizes the file does not hold: each must be
	// refused from the header alone, before a buffer is sized from it.
	for name, file := range hostileV2Files() {
		cases = append(cases, corruption{name, func([]byte) []byte { return file }, "block 0 declares"})
	}

	// No row may cost a loader more than this on the way to its error: the
	// valid file decodes in under 2 MiB, so anything near the limit was
	// sized from a field the file lied about.
	const maxAlloc = 8 << 20

	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), data...))
			path := filepath.Join(dir, "corrupt.csrg")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			loaders := map[string]func() error{
				"LoadCSRWith mmap": func() error { _, err := LoadCSRWith(path, CSRLoadOptions{}); return err },
				"LoadCSRWith portable": func() error {
					_, err := LoadCSRWith(path, CSRLoadOptions{DisableMmap: true})
					return err
				},
				"streamCSR": func() error {
					_, _, err := streamCSR("corrupt", bytes.NewReader(buf), 512, func(int64, []Edge) error { return nil })
					return err
				},
				"StreamFile": func() error {
					_, _, err := StreamFile(path, 512, func(int64, []Edge) error { return nil })
					return err
				},
			}
			for how, load := range loaders {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := load()
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > maxAlloc {
					t.Errorf("%s allocated %d bytes before rejecting the file (limit %d)", how, got, maxAlloc)
				}
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

// TestLoadCSRMmapMatchesPortable pins the zero-copy path against the
// copying decoder on both writer layouts (with and without adjacency
// sections) — and, where the platform supports mapping at all, that the
// aligned v1 layout actually engages it.
func TestLoadCSRMmapMatchesPortable(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()

	withCSR := filepath.Join(dir, "with-csr.csrg")
	if err := SaveCSRVersion(g, withCSR, CSRVersion1); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.csrg")
	f, err := os.Create(streamed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewCSRWriterVersion(f, g.Name, CSRVersion1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(g.Edges); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{withCSR, streamed} {
		mapped, err := LoadCSRWith(path, CSRLoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		portable, err := LoadCSRWith(path, CSRLoadOptions{DisableMmap: true})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertSameGraph(t, portable, mapped)
		if portable.mmap != nil {
			t.Errorf("%s: portable load pinned a mapping", path)
		}
		if mmapAvailable && hostLittleEndian && mapped.mmap == nil {
			t.Errorf("%s: mmap-capable platform did not engage the zero-copy path", path)
		}
	}
}

// TestLegacyUnpaddedHeaderStillLoads hand-writes a v1 file whose name is
// not NUL-padded — the layout every pre-padding writer produced — and
// checks it still decodes byte-identically (via the misalignment fallback
// on the mmap path).
func TestLegacyUnpaddedHeaderStillLoads(t *testing.T) {
	g := testGraph(t) // name "csr-test": 28+8 = 36, payload misaligned at %8 = 4
	var buf bytes.Buffer
	hdr := make([]byte, csrHeaderFixed+len(g.Name))
	copy(hdr[0:4], csrMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], CSRVersion1)
	binary.LittleEndian.PutUint16(hdr[6:8], 0)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(g.Name)))
	copy(hdr[csrHeaderFixed:], g.Name)
	buf.Write(hdr)
	payload := make([]byte, 0, 8*len(g.Edges))
	for _, e := range g.Edges {
		payload = binary.LittleEndian.AppendUint32(payload, e.Src)
		payload = binary.LittleEndian.AppendUint32(payload, e.Dst)
	}
	buf.Write(payload)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc32.Checksum(payload, castagnoli))
	buf.Write(foot[:])

	path := filepath.Join(t.TempDir(), "legacy.csrg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != g.Name {
		t.Errorf("name %q, want %q", got.Name, g.Name)
	}
	if !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Error("legacy unpadded file decodes different edges")
	}
}

// TestUnknownVersionRejectedEverywhere: a binary file from a future format
// revision must be rejected by name through every entry point, not fed to
// the text parser or misparsed. The one check is decodeCSRHeader's.
func TestUnknownVersionRejectedEverywhere(t *testing.T) {
	g := testGraph(t)
	data := writeCSRBytes(t, g, CSRVersion1)
	binary.LittleEndian.PutUint16(data[4:6], 7)
	path := filepath.Join(t.TempDir(), "future.csrg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for how, load := range map[string]func() error{
		"LoadFile":         func() error { _, err := LoadFile(path); return err },
		"LoadCSRWith":      func() error { _, err := LoadCSRWith(path, CSRLoadOptions{}); return err },
		"LoadCSRWith read": func() error { _, err := LoadCSRWith(path, CSRLoadOptions{DisableMmap: true}); return err },
		"StreamFile":       func() error { _, _, err := StreamFile(path, 0, func(int64, []Edge) error { return nil }); return err },
		"streamCSR": func() error {
			_, _, err := streamCSR(path, bytes.NewReader(data), 0, func(int64, []Edge) error { return nil })
			return err
		},
	} {
		err := load()
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 7") {
			t.Errorf("%s: got %v, want unsupported-version error naming version 7", how, err)
		}
	}
}
