package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"graphpart/internal/par"
)

// .csrg format version 2: compressed edge blocks.
//
// The v1 edge section spends 8 bytes per edge no matter what the ids look
// like. Real graph streams are far more regular than that — generators and
// crawls emit edges grouped by source, and web-graph destinations cluster
// near their source (locality) — so consecutive ids are close and their
// differences are small. v2 exploits this: each edge stores
//
//	uvarint(zigzag(src − prevSrc)), uvarint(zigzag(dst − src))
//
// where prevSrc is the previous edge's src *within the block* (0 for the
// block's first edge). Small deltas take 1–2 bytes, so typical sections
// shrink to 2–4 bytes per edge. Zigzag keeps backwards jumps cheap too.
//
// Edges are grouped into blocks of csrV2BlockEdges, each preceded by
//
//	uint32 edgeCount, uint32 byteLen
//
// and the whole section by a uint32 block count. Deltas reset at block
// boundaries, so every block decodes with no context beyond its header —
// which is what lets the bulk loader fan the decode out over par.Do workers
// while preserving edge order.

// csrV2BlockEdges is the number of edges per compressed block. 64Ki edges
// are 512 KiB decoded and 128–640 KiB encoded — big enough to amortize
// per-block overhead, small enough that streamCSR's one resident block
// keeps a stream's memory flat.
const csrV2BlockEdges = 1 << 16

// csrV2Blocks is the number of blocks m edges are cut into.
func csrV2Blocks(m int64) uint32 { return uint32((m + csrV2BlockEdges - 1) / csrV2BlockEdges) }

// csrV2MaxBytesPerEdge bounds a block's declared byte length relative to
// its edge count: a uvarint of a zigzagged 33-bit delta is at most 5 bytes,
// two fields per edge. Anything larger is corruption, rejected before any
// allocation trusts it.
const csrV2MaxBytesPerEdge = 10

// checkV2BlockHeader rejects a block header no writer produces, and both
// decoders call it before anything is allocated on the header's say-so:
// writers cut blocks at csrV2BlockEdges, and an edge is two varints of at
// least one byte each and at most csrV2MaxBytesPerEdge together. With it a
// decoder's memory is bounded by the bytes actually present (bulk) or by one
// block (stream), whatever the header's edge count claims.
func checkV2BlockHeader(src string, bidx, cnt, byteLen int) error {
	switch {
	case cnt > csrV2BlockEdges:
		return fmt.Errorf("csrg %s: block %d declares %d edges (max %d per block)", src, bidx, cnt, csrV2BlockEdges)
	case byteLen < 2*cnt:
		return fmt.Errorf("csrg %s: block %d declares %d bytes for %d edges (min 2/edge)", src, bidx, byteLen, cnt)
	case byteLen > (cnt+1)*csrV2MaxBytesPerEdge:
		return fmt.Errorf("csrg %s: block %d declares %d bytes for %d edges (max %d/edge)", src, bidx, byteLen, cnt, csrV2MaxBytesPerEdge)
	}
	return nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendV2Block appends one block's compressed payload to dst and returns
// the extended slice.
func appendV2Block(dst []byte, edges []Edge) []byte {
	prevSrc := uint32(0)
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, zigzag(int64(e.Src)-int64(prevSrc)))
		dst = binary.AppendUvarint(dst, zigzag(int64(e.Dst)-int64(e.Src)))
		prevSrc = e.Src
	}
	return dst
}

// shortUvarint decodes a one- or two-byte uvarint at b[pos:] — nearly
// every delta a writer emits — and returns n = 0 for anything else: a longer
// or malformed varint, or one that may run into the block's end. The caller
// then decodes with binary.Uvarint, so every value and every refusal is the
// one it gives.
func shortUvarint(b []byte, pos int) (uint64, int) {
	if pos+1 < len(b) {
		if b[pos] < 0x80 {
			return uint64(b[pos]), 1
		}
		if b[pos+1] < 0x80 {
			return uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7, 2
		}
	}
	return 0, 0
}

// decodeV2Block decodes one block payload into out (whose length is the
// block's declared edge count), bounds-checking every id and folding the
// maximum id into maxID. base is the global index of the block's first edge
// and blockIdx its position in the file; both name the offset in errors.
// The maximum is folded in a local and stored once, also when an edge is
// refused, so parallel decoders do not write adjacent slots per edge.
func decodeV2Block(src string, payload []byte, numVertices uint64, base int64, blockIdx int, out []Edge, maxID *VertexID) error {
	pos := 0
	prevSrc := int64(0)
	top := *maxID
	var err error
	for i := range out {
		ds, n := shortUvarint(payload, pos)
		if n == 0 {
			ds, n = binary.Uvarint(payload[pos:])
		}
		if n <= 0 {
			err = fmt.Errorf("csrg %s: block %d: bad src varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
			break
		}
		pos += n
		s := prevSrc + unzigzag(ds)
		dd, n := shortUvarint(payload, pos)
		if n == 0 {
			dd, n = binary.Uvarint(payload[pos:])
		}
		if n <= 0 {
			err = fmt.Errorf("csrg %s: block %d: bad dst varint at block byte %d (edge %d)", src, blockIdx, pos, base+int64(i))
			break
		}
		pos += n
		d := s + unzigzag(dd)
		if s < 0 || uint64(s) >= numVertices || d < 0 || uint64(d) >= numVertices {
			err = fmt.Errorf("csrg %s: block %d: edge %d (%d→%d) outside declared vertex range [0,%d)", src, blockIdx, base+int64(i), s, d, numVertices)
			break
		}
		out[i] = Edge{VertexID(s), VertexID(d)}
		top = max(top, VertexID(s), VertexID(d))
		prevSrc = s
	}
	*maxID = top
	if err == nil && pos != len(payload) {
		err = fmt.Errorf("csrg %s: block %d: %d trailing bytes after %d edges", src, blockIdx, len(payload)-pos, len(out))
	}
	return err
}

// decodeCSRv2 decodes a whole in-memory v2 file: verify the checksum, index
// the blocks (every structural field is validated before any decode trusts
// it), then decode independent blocks on parallel workers straight into
// their slots of the shared edge slice.
func decodeCSRv2(src string, data []byte, off int, h csrHeader) (*Graph, error) {
	if int64(len(data)) < int64(off)+8 {
		return nil, fmt.Errorf("csrg %s: truncated v2 payload (%d bytes)", src, len(data))
	}
	payload := data[off : len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload[4:], castagnoli); got != stored {
		return nil, fmt.Errorf("csrg %s: payload checksum mismatch (%#08x != stored %#08x): file is corrupt", src, got, stored)
	}
	m := int(h.numEdges)
	n := int(h.numVertices)
	numBlocks := int(binary.LittleEndian.Uint32(payload[0:4]))
	if int64(numBlocks)*8 > int64(len(payload)-4) {
		return nil, fmt.Errorf("csrg %s: %d blocks cannot fit in %d payload bytes", src, numBlocks, len(payload)-4)
	}

	type blockRef struct {
		count int
		base  int64
		data  []byte
	}
	blocks := make([]blockRef, 0, numBlocks)
	pos := 4
	var base int64
	for bidx := 0; bidx < numBlocks; bidx++ {
		if len(payload)-pos < 8 {
			return nil, fmt.Errorf("csrg %s: truncated header of block %d at payload byte %d", src, bidx, pos)
		}
		cnt := int(binary.LittleEndian.Uint32(payload[pos:]))
		bl := int(binary.LittleEndian.Uint32(payload[pos+4:]))
		pos += 8
		if err := checkV2BlockHeader(src, bidx, cnt, bl); err != nil {
			return nil, err
		}
		if int64(cnt) > int64(m)-base {
			return nil, fmt.Errorf("csrg %s: block %d declares %d edges but only %d of the header's %d remain", src, bidx, cnt, int64(m)-base, m)
		}
		if bl > len(payload)-pos {
			return nil, fmt.Errorf("csrg %s: block %d declares %d payload bytes but only %d remain", src, bidx, bl, len(payload)-pos)
		}
		blocks = append(blocks, blockRef{count: cnt, base: base, data: payload[pos : pos+bl]})
		pos += bl
		base += int64(cnt)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("csrg %s: %d trailing payload bytes after %d blocks", src, len(payload)-pos, numBlocks)
	}
	if base != int64(m) {
		return nil, fmt.Errorf("csrg %s: blocks hold %d edges, header says %d", src, base, m)
	}

	// Blocks decode straight into their slots of the shared edge slice; a
	// worker that hit a bad block skips the rest of its shards.
	edges := make([]Edge, m)
	workers := par.Workers(0)
	maxIDs := make([]VertexID, workers)
	errs := make([]error, workers)
	par.Do(workers, len(blocks), func(bidx, w int) {
		if errs[w] == nil {
			b := blocks[bidx]
			errs[w] = decodeV2Block(src, b.data, h.numVertices, b.base, bidx, edges[b.base:b.base+int64(b.count)], &maxIDs[w])
		}
	})
	var maxID VertexID
	for w := range errs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		maxID = max(maxID, maxIDs[w])
	}
	if err := checkVertexCount(src, h.numVertices, int64(m), maxID); err != nil {
		return nil, err
	}
	g := &Graph{Name: h.name, Edges: edges, numVertices: n}
	g.buildDegrees()
	return g, nil
}

// streamCSRv2 is the v2 tail of streamCSR: br is positioned just past the
// header. Blocks are read and decoded one at a time (the CRC must see every
// byte in file order); fn sees batches in stream order from this goroutine.
func streamCSRv2(name string, br *bufio.Reader, h csrHeader, batchSize int, fn func(offset int64, edges []Edge) error) (int64, VertexID, error) {
	var quad [4]byte
	if _, err := io.ReadFull(br, quad[:]); err != nil {
		return 0, 0, fmt.Errorf("csrg %s: reading block count: %w", name, err)
	}
	numBlocks := int(binary.LittleEndian.Uint32(quad[:]))
	m := int64(h.numEdges)
	crc := uint32(0)
	var total int64 // edges delivered to fn
	var maxID VertexID

	// emit chops a decoded block into ≤batchSize batches for fn.
	emit := func(edges []Edge) error {
		for len(edges) > 0 {
			n := len(edges)
			if n > batchSize {
				n = batchSize
			}
			if err := fn(total, edges[:n]); err != nil {
				return err
			}
			total += int64(n)
			edges = edges[n:]
		}
		return nil
	}

	// readBlock pulls the next block header + payload off the wire into a
	// pooled buffer, updating the CRC, and validates the structural fields.
	readBlock := func(bidx int) (cnt int, payload *[]byte, err error) {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return 0, nil, fmt.Errorf("csrg %s: truncated header of block %d (edge %d of %d): %w", name, bidx, total, m, err)
		}
		crc = crc32.Update(crc, castagnoli, hdr[:])
		cnt = int(binary.LittleEndian.Uint32(hdr[0:4]))
		bl := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if err := checkV2BlockHeader(name, bidx, cnt, bl); err != nil {
			return 0, nil, err
		}
		if int64(cnt) > m-total {
			return 0, nil, fmt.Errorf("csrg %s: block %d declares %d edges but only %d of the header's %d remain", name, bidx, cnt, m-total, m)
		}
		payload = getByteBuf(bl)
		buf := (*payload)[:bl]
		if _, err := io.ReadFull(br, buf); err != nil {
			putByteBuf(payload)
			return 0, nil, fmt.Errorf("csrg %s: truncated payload of block %d (edge %d of %d): %w", name, bidx, total, m, err)
		}
		crc = crc32.Update(crc, castagnoli, buf)
		*payload = buf
		return cnt, payload, nil
	}

	blockp := getEdgeBuf(csrV2BlockEdges)
	defer putEdgeBuf(blockp)
	for bidx := 0; bidx < numBlocks; bidx++ {
		cnt, payload, err := readBlock(bidx)
		if err != nil {
			return total, maxID, err
		}
		out := (*blockp)[:cnt] // cnt ≤ csrV2BlockEdges: readBlock checked
		err = decodeV2Block(name, *payload, h.numVertices, total, bidx, out, &maxID)
		putByteBuf(payload)
		if err != nil {
			return total, maxID, err
		}
		if err := emit(out); err != nil {
			return total, maxID, err
		}
	}
	if total != m {
		return total, maxID, fmt.Errorf("csrg %s: blocks hold %d edges, header says %d", name, total, m)
	}
	return total, maxID, checkStreamTrailer(name, br, h, crc, total, maxID)
}
