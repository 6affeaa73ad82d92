package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// The fuzz targets encode the loader contract the corruption matrices
// (TestCSRCorruptionDetection, TestCSRv2CorruptionDetection) pin case by
// case: arbitrary bytes must never panic a loader, every rejection must be
// a named error, and every acceptance must satisfy the Graph invariants.
// The seed corpus is the corruption matrix replayed as mutations of valid
// v1 and v2 files, so the fuzzer starts at the known-interesting
// boundaries instead of rediscovering the header layout.

// fuzzSeedGraph mirrors testGraph's shapes (hubs, duplicates, self loop,
// isolated ids) without needing a *testing.T.
func fuzzSeedGraph() *Graph {
	return FromEdges("fuzz-seed", []Edge{
		{0, 1}, {1, 2}, {2, 0}, {5, 1}, {1, 5}, {0, 1},
		{7, 0}, {3, 3},
	})
}

func fuzzCSRBytes(f *testing.F, version int) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := WriteCSRVersion(fuzzSeedGraph(), &buf, version); err != nil {
		f.Fatalf("writing v%d seed: %v", version, err)
	}
	return buf.Bytes()
}

// hostileV2File is a structurally complete 48-byte v2 file — header, one
// block header, valid checksum — whose only block declares cnt edges in
// byteLen bytes and carries none of them. Before checkV2BlockHeader the
// decoders sized buffers from those two fields: 200 M edges cost the bulk
// loader 1.5 GiB and the stream decoder 1.9 GiB before either noticed the
// bytes were not there.
func hostileV2File(cnt, byteLen uint32) []byte {
	var buf bytes.Buffer
	if _, err := writeCSRHeader(&buf, "x", CSRVersion2, 0, 2, uint64(cnt)); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	var blocks [12]byte
	binary.LittleEndian.PutUint32(blocks[0:], 1) // block count, outside the CRC
	binary.LittleEndian.PutUint32(blocks[4:], cnt)
	binary.LittleEndian.PutUint32(blocks[8:], byteLen)
	buf.Write(blocks[:])
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(blocks[4:], castagnoli))
}

// hostileV2Files are the crafted headers both corruption suites replay: the
// bulk decoders' worst case (edges declared, no payload), the stream
// decoder's (the largest payload the per-edge bound let through), and the
// same two shapes at the per-block limit, where only the bytes-per-edge
// floor stands between a small file and a large edge slice.
func hostileV2Files() map[string][]byte {
	const m = 200_000_000
	return map[string][]byte{
		"hostile block: 200M edges in no bytes":   hostileV2File(m, 0),
		"hostile block: 200M edges in 1.9 GiB":    hostileV2File(m, (m+1)*csrV2MaxBytesPerEdge),
		"hostile block: full block in no bytes":   hostileV2File(csrV2BlockEdges, 0),
		"hostile block: one edge past full block": hostileV2File(csrV2BlockEdges+1, 2*(csrV2BlockEdges+1)),
	}
}

// addCSRSeeds seeds both format versions plus the corruption-matrix
// mutations: truncations at the interesting boundaries, a wrong magic, an
// unsupported version, unknown flags, payload bit flips, lying vertex
// counts, a non-terminating v2 varint, and the hostile v2 block headers.
func addCSRSeeds(f *testing.F) {
	f.Helper()
	for _, b := range hostileV2Files() {
		f.Add(b)
	}
	v1 := fuzzCSRBytes(f, CSRVersion1)
	v2 := fuzzCSRBytes(f, CSRVersion2)
	mutate := func(base []byte, fn func([]byte) []byte) {
		f.Add(fn(append([]byte(nil), base...)))
	}
	for _, base := range [][]byte{v1, v2} {
		f.Add(base)
		mutate(base, func(b []byte) []byte { return nil })
		mutate(base, func(b []byte) []byte { return b[:10] })
		mutate(base, func(b []byte) []byte { return b[:csrHeaderFixed+2] })
		mutate(base, func(b []byte) []byte { return b[:len(b)/2] })
		mutate(base, func(b []byte) []byte { return b[:len(b)-4] })
		mutate(base, func(b []byte) []byte { return append(b, 0xff) })
		mutate(base, func(b []byte) []byte { b[0] = 'X'; return b })
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0x80)
			return b
		})
		mutate(base, func(b []byte) []byte {
			b[len(b)-5] ^= 0x40
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 2)
			return b
		})
		mutate(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1000)
			return b
		})
	}
	// v2 only: a varint made of continuation bytes that never terminates.
	mutate(v2, func(b []byte) []byte {
		hl := csrHeaderFixed + int(binary.LittleEndian.Uint32(b[24:28]))
		block0 := hl + 4
		for i := 0; i < 12 && block0+8+i < len(b); i++ {
			b[block0+8+i] = 0x80
		}
		return b
	})
}

// checkNamedErr asserts a loader rejection is a named error, never a bare
// or empty one: corrupt input must be attributable to the format layer.
func checkNamedErr(t *testing.T, err error, want string) {
	t.Helper()
	if err.Error() == "" {
		t.Fatalf("loader rejected input with an empty error message")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("loader error %q is not a named %q error", err, want)
	}
}

// checkGraphInvariants asserts the structural invariants every accepted
// graph must satisfy: edge ids inside the vertex space and degree arrays
// consistent with the edge list.
func checkGraphInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumVertices()
	for i, e := range g.Edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			t.Fatalf("edge %d = %v escapes the %d-vertex space", i, e, n)
		}
	}
	if len(g.Edges) > 0 && n == 0 {
		t.Fatalf("%d edges but zero vertices", len(g.Edges))
	}
}

// FuzzReadCSR: the bulk decoder behind LoadFile and LoadCSRWith must reject
// arbitrary bytes with a named csrg error or return a structurally valid
// graph — and never panic.
func FuzzReadCSR(f *testing.F) {
	addCSRSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeCSRData("stream", data, nil)
		if err != nil {
			checkNamedErr(t, err, "csrg")
			return
		}
		checkGraphInvariants(t, g)
	})
}

// FuzzStreamCSR: the streaming decoder must never panic on arbitrary bytes,
// must name every rejection, must deliver batches at contiguous offsets, and
// must agree with the bulk loader — an independent decoder of the same bytes
// — whenever that one accepts: same edge count, same max id, same edge
// sequence, across both format versions. Both hold the header's vertex count
// to the edges with one check, so an edge-less file that declares vertices
// fails both. (The converse is not required: the stream does not see
// trailing bytes or validate v1 adjacency sections.)
func FuzzStreamCSR(f *testing.F) {
	addCSRSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var streamed []Edge
		total, maxID, err := streamCSR("fuzz", bytes.NewReader(data), 7, func(offset int64, edges []Edge) error {
			if int(offset) != len(streamed) {
				t.Fatalf("batch offset %d, want %d", offset, len(streamed))
			}
			streamed = append(streamed, edges...)
			return nil
		})
		if err != nil {
			checkNamedErr(t, err, "csrg")
		}
		g, bulkErr := decodeCSRData("stream", data, nil)
		if bulkErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("bulk loader accepted but the stream rejected: %v", err)
		}
		if total != int64(len(g.Edges)) || !reflect.DeepEqual(streamed, append([]Edge(nil), g.Edges...)) {
			t.Fatalf("stream delivered %d edges %v, bulk loader %d %v", total, streamed, len(g.Edges), g.Edges)
		}
		if total > 0 && int(maxID) != g.NumVertices()-1 {
			t.Fatalf("stream max id %d, bulk loader has %d vertices", maxID, g.NumVertices())
		}
	})
}

// FuzzParseEdgeList: the text parser must never panic, must name every
// rejection, and every feeder of it — streamEdgeList, LoadFile through a
// temp file, and the chunk fan-out at a chunk size small enough to cut the
// input several times — must agree with the reference loop (io_ref_test.go)
// on edges, max id, verdict and error text.
// Inputs holding Unicode-only whitespace are where the two may differ by
// design; there the feeders are only held to agreeing with each other.
func FuzzParseEdgeList(f *testing.F) {
	for _, seed := range edgeListSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !hasUnicodeOnlySpace(data) {
			checkAgainstReference(t, data, t.TempDir(), 5, 64)
		}
		streamed, _ := collectStream(streamEdgeList, "in", bytes.NewReader(data), 3)
		if streamed.err != nil {
			checkNamedErr(t, streamed.err, "edge list")
		}
		edges, err := parseEdgeList("in", data, 5, 4)
		agree(t, "parseEdgeList vs streamEdgeList", data, streamed, parsed{edges: edges, maxID: streamed.maxID, err: err})
	})
}
