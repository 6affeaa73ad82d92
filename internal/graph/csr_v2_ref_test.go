package graph

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refDecodeV2Block is decodeV2Block as it stood before its short-varint
// fast path and local max fold — every varint through binary.Uvarint, the
// maximum folded through the pointer per edge — kept verbatim as the
// reference the fast decoder is compared against: the same edges written,
// the same maximum left behind and the same error text, byte offset and
// edge index included.
func refDecodeV2Block(src string, payload []byte, numVertices uint64, base int64, blockIdx int, out []Edge, maxID *VertexID) error {
	pos := 0
	prevSrc := int64(0)
	for i := range out {
		ds, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return fmt.Errorf("csrg %s: block %d: bad src varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
		}
		pos += n
		s := prevSrc + unzigzag(ds)
		dd, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return fmt.Errorf("csrg %s: block %d: bad dst varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
		}
		pos += n
		d := s + unzigzag(dd)
		if s < 0 || uint64(s) >= numVertices || d < 0 || uint64(d) >= numVertices {
			return fmt.Errorf("csrg %s: block %d: edge %d (%d→%d) outside declared vertex range [0,%d)", src, blockIdx, base+int64(i), s, d, numVertices)
		}
		out[i] = Edge{VertexID(s), VertexID(d)}
		if out[i].Src > *maxID {
			*maxID = out[i].Src
		}
		if out[i].Dst > *maxID {
			*maxID = out[i].Dst
		}
		prevSrc = s
	}
	if pos != len(payload) {
		return fmt.Errorf("csrg %s: block %d: %d trailing bytes after %d edges", src, blockIdx, len(payload)-pos, len(out))
	}
	return nil
}

// appendPaddedUvarint appends v as a uvarint stretched to width bytes with
// continuation bits (width ≥ the canonical length): the non-canonical
// encodings binary.Uvarint accepts, and at width 11 one it refuses.
func appendPaddedUvarint(dst []byte, v uint64, width int) []byte {
	for i := 0; i < width-1; i++ {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// v2RefEdges is a block's worth of edges that exercises every delta width
// the writer emits: runs from one source, backwards jumps, self loops, and
// destinations far from their source.
func v2RefEdges() []Edge {
	rng := rand.New(rand.NewSource(52))
	edges := []Edge{{0, 0}, {0, 1}, {3, 3}, {3, 200}, {70, 5}, {70, 16_000}, {1 << 20, 0}, {5, 1 << 20}}
	for i := 0; i < 40; i++ {
		s := VertexID(rng.Intn(1 << 21))
		edges = append(edges, Edge{s, s + VertexID(rng.Intn(300))}, Edge{s, VertexID(rng.Intn(1 << 21))})
	}
	return edges
}

// v2BlockSeed is one FuzzV2BlockMatchesReference input: a payload, the
// edge count the block header declares, the declared vertex count and the
// maximum already folded in from earlier blocks.
type v2BlockSeed struct {
	payload     []byte
	count       uint16
	numVertices uint64
	maxID       uint32
}

// v2BlockSeeds are the decoder's boundaries: random bytes, valid blocks
// with one field recoded non-canonically or at 10 and 11 bytes, a varint
// that overflows in its 10th byte, every truncation, trailing bytes, and
// ids at and past the declared vertex count.
func v2BlockSeeds() []v2BlockSeed {
	edges := v2RefEdges()
	var maxEdge VertexID
	for _, e := range edges {
		maxEdge = max(maxEdge, e.Src, e.Dst)
	}
	n := uint64(maxEdge) + 1
	valid := appendV2Block(nil, edges)
	cnt := uint16(len(edges))
	seeds := []v2BlockSeed{
		{valid, cnt, n, 0},
		{valid, cnt, n, 1 << 30},                       // an earlier block's larger maximum
		{valid, cnt, n - 1, 0},                         // the largest id is past the range
		{valid, cnt, 1 << 32, 0},                       // every id in range
		{valid, cnt - 1, n, 0},                         // one edge's bytes left over
		{append(slices.Clone(valid), 0), cnt, n, 0},    // a trailing byte
		{append(slices.Clone(valid), 1, 2), cnt, n, 0}, // a trailing edge
		{[]byte{}, 0, 1, 0},                            // the empty block
		{[]byte{2, 0}, 1, 1 << 32, 0},                  // src delta −1: below zero
		{[]byte{0, 1}, 1, 1 << 32, 0},                  // dst delta −1: below zero
		{[]byte{0x80, 0x00}, 1, 1 << 32, 0},            // a lone field, non-canonical
	}
	// Each field of the first edges recoded: non-canonical 2 bytes
	// (0x80 0x00 is zero), 10 bytes (accepted), 11 bytes (refused).
	for field := 0; field < 6; field++ {
		for _, width := range []int{2, 3, 10, 11} {
			var p []byte
			prevSrc := int64(0)
			for i, e := range edges {
				for j, v := range []uint64{zigzag(int64(e.Src) - prevSrc), zigzag(int64(e.Dst) - int64(e.Src))} {
					if 2*i+j == field {
						p = appendPaddedUvarint(p, v, max(width, len(binary.AppendUvarint(nil, v))))
					} else {
						p = binary.AppendUvarint(p, v)
					}
				}
				prevSrc = int64(e.Src)
			}
			seeds = append(seeds, v2BlockSeed{p, cnt, n, 0})
		}
	}
	// Varints of ten bytes: the largest value (its last byte is 1), one
	// whose last byte overflows, and both as the dst after a valid src.
	maxVarint := binary.AppendUvarint(nil, ^uint64(0))
	overflow := append(slices.Clone(maxVarint[:9]), 2)
	for _, v := range [][]byte{maxVarint, overflow} {
		seeds = append(seeds,
			v2BlockSeed{append(slices.Clone(v), 0), 1, 1 << 32, 0},
			v2BlockSeed{append([]byte{4}, v...), 1, 1 << 32, 0})
	}
	// Truncation at every byte, with the count kept.
	for cut := 0; cut < len(valid); cut++ {
		seeds = append(seeds, v2BlockSeed{valid[:cut], cnt, n, 0})
	}
	// Random payloads at a few counts and ranges.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		p := make([]byte, 1+rng.Intn(64))
		rng.Read(p)
		if i%2 == 0 {
			for j := range p {
				p[j] &= 0x8f // mostly short varints
			}
		}
		seeds = append(seeds, v2BlockSeed{p, uint16(rng.Intn(len(p) + 2)), uint64(rng.Intn(1 << 12)), uint32(rng.Intn(64))})
	}
	return seeds
}

// checkV2BlockMatchesReference decodes one block with both decoders into
// identically pre-filled slices and fails on any difference in the edges
// written (or left alone), the maximum left behind, or the error text.
func checkV2BlockMatchesReference(t *testing.T, s v2BlockSeed) {
	t.Helper()
	const base, bidx = 1 << 33, 7
	fill := func() []Edge {
		out := make([]Edge, s.count)
		for i := range out {
			out[i] = Edge{0xdead, 0xbeef}
		}
		return out
	}
	wantOut, gotOut := fill(), fill()
	wantMax, gotMax := VertexID(s.maxID), VertexID(s.maxID)
	wantErr := refDecodeV2Block("x", s.payload, s.numVertices, base, bidx, wantOut, &wantMax)
	gotErr := decodeV2Block("x", s.payload, s.numVertices, base, bidx, gotOut, &gotMax)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("payload %x count %d n %d: error %v, reference %v", s.payload, s.count, s.numVertices, gotErr, wantErr)
	}
	if gotMax != wantMax {
		t.Fatalf("payload %x count %d n %d: max id %d, reference %d", s.payload, s.count, s.numVertices, gotMax, wantMax)
	}
	if !slices.Equal(gotOut, wantOut) {
		t.Fatalf("payload %x count %d n %d: edges %v, reference %v", s.payload, s.count, s.numVertices, gotOut, wantOut)
	}
}

// FuzzV2BlockMatchesReference holds decodeV2Block to refDecodeV2Block on
// arbitrary payloads, edge counts, vertex counts and prior maxima.
func FuzzV2BlockMatchesReference(f *testing.F) {
	for _, s := range v2BlockSeeds() {
		f.Add(s.payload, s.count, s.numVertices, s.maxID)
	}
	f.Fuzz(func(t *testing.T, payload []byte, count uint16, numVertices uint64, maxID uint32) {
		if int(count) > 2*len(payload)+2 {
			count = uint16(2*len(payload) + 2) // past this every edge is a truncation
		}
		checkV2BlockMatchesReference(t, v2BlockSeed{payload, count, numVertices, maxID})
	})
}
