package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"graphpart/internal/par"
)

// The .csrg binary graph format.
//
// Text edge lists (the storage format of the paper's datasets, §4.2) cost a
// line scan plus two integer parses per edge on every load. The .csrg format
// stores the same graph in little-endian binary so loading is I/O-bound. A
// file carries the edge list in its original stream order — partitioning
// strategies assign by edge index, so order is part of graph identity.
//
// Two payload layouts share one header:
//
//   - version 1 stores fixed-width records: every section is a flat array
//     whose length is known from the header, so a reader can mmap the file
//     and slice the sections at fixed offsets without copying (LoadFile and
//     LoadCSRWith do exactly that where the platform allows). Optionally the
//     prebuilt CSR adjacency sections follow the edges, making EnsureCSR
//     free after load.
//   - version 2 stores the edge list as delta+varint-compressed blocks
//     (see csr_v2.go): files are several times smaller and the per-block
//     headers let independent blocks decode on parallel workers. v2 files
//     carry no adjacency sections; readers rebuild adjacency lazily.
//
// Layout (all integers little-endian):
//
//	header:
//	  [0:4)   magic "CSRG"
//	  [4:6)   uint16 format version (1 or 2)
//	  [6:8)   uint16 flags (v1 bit 0: CSR adjacency sections present; v2: none)
//	  [8:16)  uint64 numVertices
//	  [16:24) uint64 numEdges
//	  [24:28) uint32 graph-name length
//	  [28:..) graph name (UTF-8; writers pad with NUL bytes so the payload
//	          starts 8-byte aligned — readers strip trailing NULs, and files
//	          written before the padding existed still decode byte-identically)
//	v1 payload:
//	  edges     2·numEdges   × uint32 (src,dst interleaved, stream order)
//	  — when flags bit 0 is set —
//	  outIndex  numVertices+1 × uint32
//	  outAdj    numEdges      × uint32
//	  outEdge   numEdges      × uint32 (edge id parallel to outAdj)
//	  inIndex   numVertices+1 × uint32
//	  inAdj     numEdges      × uint32
//	  inEdge    numEdges      × uint32
//	v2 payload:
//	  uint32 numBlocks, then numBlocks compressed edge blocks (csr_v2.go)
//	footer:
//	  [0:4) uint32 CRC-32C (Castagnoli) of the payload
//
// For v2 the checksum covers the payload *after* the 4-byte block count:
// the streaming writer only learns the count at Close and patches it in
// place, which must not invalidate the already-streamed CRC. The count is
// protected structurally instead — the blocks must fill the payload exactly
// and their edge counts must sum to the header's numEdges.
//
// The trailing checksum detects bit rot and torn writes; a wrong header
// length detects truncation before any decode happens.

// csrMagic is the 4-byte signature at the start of every .csrg file.
const csrMagic = "CSRG"

// The .csrg format versions this package reads and writes. Version 1 is the
// fixed-width mmap-able layout; version 2 compresses the edge section into
// independently decodable delta+varint blocks. Readers reject anything else
// by name, so a future v3 fails loudly instead of misparsing.
const (
	CSRVersion1 = 1
	CSRVersion2 = 2
)

const (
	csrFlagHasCSR   = 1 << 0 // CSR adjacency sections follow the edge section
	csrHeaderFixed  = 28     // header bytes before the graph name
	csrMaxNameLen   = 1 << 16
	csrMaxEdges     = 1<<31 - 1 // edge ids are int32 throughout the repo
	csrMaxVertices  = 1 << 32
	csrChunkEntries = 1 << 15 // uint32s per encode chunk (128 KiB)
)

// castagnoli is the checksum polynomial: CRC-32C has hardware support on
// amd64/arm64, so verifying an 8 MB payload costs single-digit milliseconds.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// --- writing ----------------------------------------------------------

// WriteCSRVersion writes g in the requested .csrg format version: 1 for the
// fixed-width mmap-able layout, with the adjacency sections so a later load
// returns a graph whose EnsureCSR is a no-op; 2 for the compressed block
// layout (smaller files, parallel decode, no adjacency). The edge section
// preserves g.Edges order exactly.
func WriteCSRVersion(g *Graph, w io.Writer, version int) error {
	flags := uint16(0)
	if version == CSRVersion1 {
		flags = csrFlagHasCSR
	}
	e, err := newCSREncoder(w, g.Name, version, flags, uint64(g.NumVertices()), uint64(g.NumEdges()))
	if err != nil {
		return err
	}
	if err := e.append(g.Edges); err != nil {
		return err
	}
	if flags&csrFlagHasCSR != 0 {
		in, out := g.Adjacency()
		for _, a := range []Adjacency{out, in} {
			if err := encode32s(a.Index, e.sink); err != nil {
				return err
			}
			if err := encode32s(a.Neighbors, e.sink); err != nil {
				return err
			}
			if err := encode32s(a.EdgeIDs, e.sink); err != nil {
				return err
			}
		}
	}
	return e.finish()
}

// SaveCSRVersion writes g to a .csrg file at path in the given format version.
func SaveCSRVersion(g *Graph, path string, version int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSRVersion(g, f, version); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csrEncoder writes one .csrg document: the header, the payload (summed
// into the checksum as it goes) and the footer. WriteCSRVersion drives it
// with the counts known up front; CSRWriter with zero counts that it patches
// on Close. A v2 payload opens with the block count, which is the header's
// edge count cut into blocks of csrV2BlockEdges.
type csrEncoder struct {
	bw      *bufio.Writer
	name    string
	version int
	hdrLen  int // payload start, where v2's block count sits
	crc     uint32
	edges   int64
	block   []Edge // v2: the edges of the block not yet full
	enc     []byte // v2: the block being written, compressed
}

func newCSREncoder(w io.Writer, name string, version int, flags uint16, numVertices, numEdges uint64) (*csrEncoder, error) {
	if version != CSRVersion1 && version != CSRVersion2 {
		return nil, fmt.Errorf("csrg %s: unknown writer version %d (have %d and %d)", name, version, CSRVersion1, CSRVersion2)
	}
	e := &csrEncoder{bw: bufio.NewWriterSize(w, 1<<20), name: name, version: version}
	var err error
	if e.hdrLen, err = writeCSRHeader(e.bw, name, uint16(version), flags, numVertices, numEdges); err != nil {
		return nil, err
	}
	if version == CSRVersion2 {
		// Written outside the CRC: the v2 checksum starts after the block
		// count (see format doc), so CSRWriter can patch it.
		_, err = e.bw.Write(binary.LittleEndian.AppendUint32(nil, csrV2Blocks(int64(numEdges))))
	}
	return e, err
}

func (e *csrEncoder) sink(chunk []byte) error {
	e.crc = crc32.Update(e.crc, castagnoli, chunk)
	_, err := e.bw.Write(chunk)
	return err
}

// append encodes a batch of edges: v1 as fixed-width records, v2 into the
// pending block, written out each time it reaches csrV2BlockEdges.
func (e *csrEncoder) append(edges []Edge) error {
	if e.edges+int64(len(edges)) > csrMaxEdges {
		return fmt.Errorf("csrg %s: edge count exceeds the int32 edge-id space", e.name)
	}
	e.edges += int64(len(edges))
	if e.version == CSRVersion1 {
		return encodeEdges(edges, e.sink)
	}
	for len(edges) > 0 {
		take := min(csrV2BlockEdges-len(e.block), len(edges))
		e.block = append(e.block, edges[:take]...)
		edges = edges[take:]
		if len(e.block) == csrV2BlockEdges {
			if err := e.writeBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeBlock compresses the pending v2 block and writes it behind its
// edge-count and byte-length header.
func (e *csrEncoder) writeBlock() error {
	e.enc = appendV2Block(e.enc[:0], e.block)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(e.block)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(e.enc)))
	e.block = e.block[:0]
	if err := e.sink(hdr[:]); err != nil {
		return err
	}
	return e.sink(e.enc)
}

// finish writes the last, partial v2 block and the checksum footer, and
// flushes.
func (e *csrEncoder) finish() error {
	if len(e.block) > 0 {
		if err := e.writeBlock(); err != nil {
			return err
		}
	}
	if _, err := e.bw.Write(binary.LittleEndian.AppendUint32(nil, e.crc)); err != nil {
		return err
	}
	return e.bw.Flush()
}

// writeCSRHeader emits the fixed header plus the (NUL-padded) name and
// returns the total header length — the file offset where the payload
// starts. The padding rounds that offset up to a multiple of 8 so the v1
// edge section can be reinterpreted in place by the mmap load path.
func writeCSRHeader(w io.Writer, name string, version, flags uint16, numVertices, numEdges uint64) (int, error) {
	if len(name) > csrMaxNameLen-8 {
		name = name[:csrMaxNameLen-8]
	}
	padded := len(name)
	if rem := (csrHeaderFixed + padded) % 8; rem != 0 {
		padded += 8 - rem
	}
	hdr := make([]byte, csrHeaderFixed+padded)
	copy(hdr[0:4], csrMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], numVertices)
	binary.LittleEndian.PutUint64(hdr[16:24], numEdges)
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(padded))
	copy(hdr[csrHeaderFixed:], name)
	_, err := w.Write(hdr)
	return len(hdr), err
}

// encode32s streams a 32-bit section through a reused chunk buffer into
// sink, keeping encode memory O(chunk) no matter how large the section is.
// int32 index values are non-negative, so their uint32 cast is
// value-preserving.
func encode32s[T int32 | uint32](vals []T, sink func([]byte) error) error {
	buf := make([]byte, 0, 4*csrChunkEntries)
	for len(vals) > 0 {
		n := len(vals)
		if n > csrChunkEntries {
			n = csrChunkEntries
		}
		buf = buf[:4*n]
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		if err := sink(buf); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// encodeEdges is encode32s for the interleaved (src,dst) edge section.
func encodeEdges(edges []Edge, sink func([]byte) error) error {
	buf := make([]byte, 0, 8*(csrChunkEntries/2))
	for len(edges) > 0 {
		n := len(edges)
		if n > csrChunkEntries/2 {
			n = csrChunkEntries / 2
		}
		buf = buf[:8*n]
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[8*i:], edges[i].Src)
			binary.LittleEndian.PutUint32(buf[8*i+4:], edges[i].Dst)
		}
		if err := sink(buf); err != nil {
			return err
		}
		edges = edges[n:]
	}
	return nil
}

// --- reading ----------------------------------------------------------

// csrHeader is the decoded fixed header plus name.
type csrHeader struct {
	version     uint16
	flags       uint16
	numVertices uint64
	numEdges    uint64
	name        string
}

func (h csrHeader) hasCSR() bool { return h.flags&csrFlagHasCSR != 0 }

// payloadLen returns the byte length of the payload the header announces.
// Only v1 payloads have a header-derivable length; v2 block sections are
// walked block by block.
func (h csrHeader) payloadLen() int64 {
	n := 8 * int64(h.numEdges)
	if h.hasCSR() {
		n += 4 * (2*(int64(h.numVertices)+1) + 4*int64(h.numEdges))
	}
	return n
}

func decodeCSRHeader(src string, b []byte) (csrHeader, int, error) {
	var h csrHeader
	if len(b) < csrHeaderFixed {
		return h, 0, fmt.Errorf("csrg %s: truncated header (%d bytes)", src, len(b))
	}
	if string(b[0:4]) != csrMagic {
		return h, 0, fmt.Errorf("csrg %s: bad magic %q (not a .csrg file)", src, b[0:4])
	}
	h.version = binary.LittleEndian.Uint16(b[4:6])
	if h.version < CSRVersion1 || h.version > CSRVersion2 {
		return h, 0, fmt.Errorf("csrg %s: unsupported format version %d (reader supports %d–%d)", src, h.version, CSRVersion1, CSRVersion2)
	}
	h.flags = binary.LittleEndian.Uint16(b[6:8])
	switch {
	case h.version == CSRVersion2 && h.flags != 0:
		return h, 0, fmt.Errorf("csrg %s: version 2 carries no flags, got %#x", src, h.flags)
	case h.flags&^uint16(csrFlagHasCSR) != 0:
		return h, 0, fmt.Errorf("csrg %s: unknown flags %#x", src, h.flags)
	}
	h.numVertices = binary.LittleEndian.Uint64(b[8:16])
	h.numEdges = binary.LittleEndian.Uint64(b[16:24])
	if h.numEdges > csrMaxEdges {
		return h, 0, fmt.Errorf("csrg %s: %d edges exceed the int32 edge-id space", src, h.numEdges)
	}
	if h.numVertices >= csrMaxVertices {
		return h, 0, fmt.Errorf("csrg %s: %d vertices exceed the uint32 id space", src, h.numVertices)
	}
	nameLen := binary.LittleEndian.Uint32(b[24:28])
	if nameLen > csrMaxNameLen {
		return h, 0, fmt.Errorf("csrg %s: implausible name length %d", src, nameLen)
	}
	end := csrHeaderFixed + int(nameLen)
	if len(b) < end {
		return h, 0, fmt.Errorf("csrg %s: truncated header name (want %d bytes, have %d)", src, end, len(b))
	}
	// Writers pad the name with NULs to align the payload; the padding is
	// not part of the graph's identity.
	h.name = strings.TrimRight(string(b[csrHeaderFixed:end]), "\x00")
	return h, end, nil
}

// CSRLoadOptions tunes LoadCSRWith.
type CSRLoadOptions struct {
	// DisableMmap forces the portable read-everything path even where the
	// zero-copy memory-mapped path is available.
	DisableMmap bool
}

// LoadCSRWith reads a .csrg file. By default the file is memory-mapped where
// the platform allows, and on a little-endian host the v1 sections are
// sliced in place without copying (the payload checksum is still verified);
// otherwise, or with DisableMmap, the whole file is read in one call and
// decoded with bulk fixed-width conversions. v2 files decode their
// compressed edge blocks on parallel workers either way.
//
// A zero-copy v1 load's Edges and CSR slices alias the mapping, which is
// released once the returned *Graph is unreachable: they are valid only
// while the graph is reachable, so a caller that keeps a slice must keep
// the graph alive as well.
func LoadCSRWith(path string, o CSRLoadOptions) (*Graph, error) {
	return loadFile(path, !o.DisableMmap, decodeCSRData)
}

// LoadFile loads a graph from path in whichever format the file holds:
// bytes that start with the .csrg magic and a version decode as binary
// (an unsupported version fails by name), anything else parses as a text
// edge list. The file is opened and mapped (or read) once. A v1 file takes
// the zero-copy path where LoadCSRWith does, under the same lifetime rule:
// the graph's Edges and CSR slices are valid only while the *Graph is
// reachable.
func LoadFile(path string) (*Graph, error) {
	return loadFile(path, true, func(src string, data []byte, ref *mmapRef) (*Graph, error) {
		if isCSR(data) {
			return decodeCSRData(src, data, ref)
		}
		edges, err := parseEdgeList(src, data, edgeListChunk, par.Workers(0))
		if err != nil {
			return nil, err
		}
		return FromEdges(src, edges), nil
	})
}

// loadFile opens the file at path once and decodes its bytes, which decode
// must not write to: a private read-only mapping where mapOK and the
// platform has one — no heap, and parse workers fault the pages in side by
// side — or else one read of the whole file. The mapping (ref) is released
// when decode returns unless the graph aliases it through g.mmap.
func loadFile(path string, mapOK bool, decode func(src string, data []byte, ref *mmapRef) (*Graph, error)) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if mapOK && size > 0 && int64(int(size)) == size {
		if ref, err := mmapFile(f, size); err == nil {
			g, err := decode(path, ref.data, ref)
			if err != nil || g.mmap == nil {
				ref.unmap()
			}
			return g, err
		}
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return decode(path, data, nil)
}

// decodeCSRData decodes a whole in-memory (or memory-mapped) .csrg file.
// When ref is non-nil, data is a read-only mapping the result may alias:
// sections that can be reinterpreted in place (little-endian host, aligned
// payload) become views into the mapping and g.mmap pins it.
func decodeCSRData(src string, data []byte, ref *mmapRef) (*Graph, error) {
	h, off, err := decodeCSRHeader(src, data)
	if err != nil {
		return nil, err
	}
	if h.version == CSRVersion2 {
		return decodeCSRv2(src, data, off, h)
	}
	want := int64(off) + h.payloadLen() + 4
	if int64(len(data)) != want {
		return nil, fmt.Errorf("csrg %s: truncated or oversized file: %d bytes, header implies %d", src, len(data), want)
	}
	payload := data[off : len(data)-4]
	if got, stored := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[len(data)-4:]); got != stored {
		return nil, fmt.Errorf("csrg %s: payload checksum mismatch (%#08x != stored %#08x): file is corrupt", src, got, stored)
	}

	n := int(h.numVertices)
	m := int(h.numEdges)
	var edges []Edge
	var maxID VertexID
	aliased := false
	if ref != nil && m > 0 {
		if ev := edgesView(payload[:8*m]); ev != nil {
			// Zero-copy: the edge section already has the in-memory []Edge
			// layout. Ids still need the same bounds check the copying
			// decoder applies.
			if maxID, err = scanEdgeIDs(src, ev, h.numVertices); err != nil {
				return nil, err
			}
			edges, aliased = ev, true
		}
	}
	if edges == nil {
		edges, maxID, err = decodeEdgeSection(src, payload[:8*m], uint32(n))
		if err != nil {
			return nil, err
		}
	}
	if err := checkVertexCount(src, h.numVertices, int64(m), maxID); err != nil {
		return nil, err
	}
	g := &Graph{Name: h.name, Edges: edges, numVertices: n}

	if !h.hasCSR() {
		if aliased {
			g.mmap = ref
		}
		g.buildDegrees()
		return g, nil
	}
	rest := payload[8*m:]
	next := func(entries int) []byte {
		sec := rest[:4*entries]
		rest = rest[4*entries:]
		return sec
	}
	nextIndex := func(entries int) []int32 {
		sec := next(entries)
		if ref != nil {
			if v := i32View(sec); v != nil {
				aliased = true
				return v
			}
		}
		return decodeIndexSection(sec)
	}
	nextU32 := func(entries int) []uint32 {
		sec := next(entries)
		if ref != nil {
			if v := u32View(sec); v != nil {
				aliased = true
				return v
			}
		}
		return decodeU32Section(sec)
	}
	g.outIndex = nextIndex(n + 1)
	g.outAdj = nextU32(m)
	g.outEdge = nextIndex(m)
	g.inIndex = nextIndex(n + 1)
	g.inAdj = nextU32(m)
	g.inEdge = nextIndex(m)
	if err := g.validateCSRSections(src); err != nil {
		return nil, err
	}
	if aliased {
		g.mmap = ref
	}
	// Degrees fall out of the index sections without another edge scan.
	g.outDeg = make([]int32, n)
	g.inDeg = make([]int32, n)
	for v := 0; v < n; v++ {
		g.outDeg[v] = g.outIndex[v+1] - g.outIndex[v]
		g.inDeg[v] = g.inIndex[v+1] - g.inIndex[v]
	}
	return g, nil
}

// scanEdgeIDs bounds-checks an aliased edge section without copying it and
// returns the maximum vertex id seen.
func scanEdgeIDs(src string, edges []Edge, numVertices uint64) (VertexID, error) {
	var maxID VertexID
	for i, e := range edges {
		if uint64(e.Src) >= numVertices || uint64(e.Dst) >= numVertices {
			return 0, fmt.Errorf("csrg %s: edge %d (%d→%d) outside declared vertex range [0,%d)", src, i, e.Src, e.Dst, numVertices)
		}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	return maxID, nil
}

// decodeEdgeChunk decodes len(b)/8 interleaved (src,dst) records from b
// into out, bounds-checking every endpoint against the declared vertex
// count and folding ids into maxID. base is the global index of out[0],
// for error messages. Both the bulk loader and streamCSR decode through
// this one loop so the paths cannot diverge. The maximum is folded in a
// local and stored once, also when an edge is refused.
func decodeEdgeChunk(src string, b []byte, numVertices uint64, base int64, out []Edge, maxID *VertexID) error {
	m := len(b) / 8
	top := *maxID
	var err error
	for i := 0; i < m; i++ {
		s := binary.LittleEndian.Uint32(b[8*i:])
		d := binary.LittleEndian.Uint32(b[8*i+4:])
		if uint64(s) >= numVertices || uint64(d) >= numVertices {
			err = fmt.Errorf("csrg %s: edge %d (%d→%d) outside declared vertex range [0,%d)", src, base+int64(i), s, d, numVertices)
			break
		}
		top = max(top, s, d)
		out[i] = Edge{s, d}
	}
	*maxID = top
	return err
}

// decodeEdgeSection bulk-decodes the whole interleaved edge array.
func decodeEdgeSection(src string, b []byte, numVertices uint32) ([]Edge, VertexID, error) {
	edges := make([]Edge, len(b)/8)
	var maxID VertexID
	if err := decodeEdgeChunk(src, b, uint64(numVertices), 0, edges, &maxID); err != nil {
		return nil, 0, err
	}
	return edges, maxID, nil
}

func decodeU32Section(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeIndexSection(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// validateCSRSections sanity-checks loaded adjacency sections so a corrupt
// (but checksum-colliding) or hand-built file cannot cause out-of-bounds
// panics later: indexes must be monotonic and end at numEdges, neighbor ids
// must be in-range, and edge ids must be valid.
func (g *Graph) validateCSRSections(src string) error {
	n, m := g.numVertices, len(g.Edges)
	for _, sec := range []struct {
		what string
		idx  []int32
		adj  []uint32
		eids []int32
	}{
		{"out", g.outIndex, g.outAdj, g.outEdge},
		{"in", g.inIndex, g.inAdj, g.inEdge},
	} {
		if len(sec.idx) != n+1 || sec.idx[0] != 0 || int(sec.idx[n]) != m {
			return fmt.Errorf("csrg %s: %s-index malformed", src, sec.what)
		}
		for v := 0; v < n; v++ {
			if sec.idx[v+1] < sec.idx[v] {
				return fmt.Errorf("csrg %s: %s-index not monotonic at vertex %d", src, sec.what, v)
			}
		}
		for i, a := range sec.adj {
			if int(a) >= n {
				return fmt.Errorf("csrg %s: %s-adjacency %d references vertex %d (numVertices=%d)", src, sec.what, i, a, n)
			}
			if e := sec.eids[i]; e < 0 || int(e) >= m {
				return fmt.Errorf("csrg %s: %s-adjacency %d references edge %d (numEdges=%d)", src, sec.what, i, e, m)
			}
		}
	}
	return nil
}

// --- streaming --------------------------------------------------------

// streamCSR is streamEdgeList for the binary format: it reads the edge
// section of a .csrg stream (either version) in batches of batchSize edges,
// calling fn with each batch's global offset. Memory stays O(batchSize) for
// v1 and O(block) for v2. Any v1 CSR adjacency sections are read through
// (and the payload checksum verified) after the edges are delivered.
//
// It returns the total edge count and the maximum vertex id seen.
func streamCSR(name string, r io.Reader, batchSize int, fn func(offset int64, edges []Edge) error) (int64, VertexID, error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	br := bufio.NewReaderSize(r, 1<<20)
	hdrFixed := make([]byte, csrHeaderFixed)
	if _, err := io.ReadFull(br, hdrFixed); err != nil {
		return 0, 0, fmt.Errorf("csrg %s: reading header: %w", name, err)
	}
	nameLen := binary.LittleEndian.Uint32(hdrFixed[24:28])
	if nameLen > csrMaxNameLen {
		return 0, 0, fmt.Errorf("csrg %s: implausible name length %d", name, nameLen)
	}
	full := make([]byte, csrHeaderFixed+int(nameLen))
	copy(full, hdrFixed)
	if _, err := io.ReadFull(br, full[csrHeaderFixed:]); err != nil {
		return 0, 0, fmt.Errorf("csrg %s: reading header name: %w", name, err)
	}
	h, _, err := decodeCSRHeader(name, full)
	if err != nil {
		return 0, 0, err
	}
	if h.version == CSRVersion2 {
		return streamCSRv2(name, br, h, batchSize, fn)
	}

	crc := uint32(0)
	m := int64(h.numEdges)
	var total int64
	var maxID VertexID
	bufp := getByteBuf(8 * batchSize)
	defer putByteBuf(bufp)
	buf := (*bufp)[:8*batchSize]
	batchp := getEdgeBuf(batchSize)
	defer putEdgeBuf(batchp)
	batch := (*batchp)[:batchSize]
	for total < m {
		want := m - total
		if want > int64(batchSize) {
			want = int64(batchSize)
		}
		chunk := buf[:8*want]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return total, maxID, fmt.Errorf("csrg %s: truncated edge section at edge %d of %d: %w", name, total, m, err)
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		if err := decodeEdgeChunk(name, chunk, h.numVertices, total, batch[:want], &maxID); err != nil {
			return total, maxID, err
		}
		if err := fn(total, batch[:want]); err != nil {
			return total, maxID, err
		}
		total += want
	}

	// Consume any trailing CSR sections so the payload checksum can be
	// verified end to end.
	remaining := h.payloadLen() - 8*m
	for remaining > 0 {
		want := int64(len(buf))
		if want > remaining {
			want = remaining
		}
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return total, maxID, fmt.Errorf("csrg %s: truncated CSR sections: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:want])
		remaining -= want
	}
	return total, maxID, checkStreamTrailer(name, br, h, crc, total, maxID)
}

// checkStreamTrailer ends both stream decoders: it reads the checksum footer
// and holds it to the CRC of the payload streamed, and the header's vertex
// count to the edges streamed.
func checkStreamTrailer(name string, br io.Reader, h csrHeader, crc uint32, total int64, maxID VertexID) error {
	var foot [4]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return fmt.Errorf("csrg %s: missing checksum footer: %w", name, err)
	}
	if stored := binary.LittleEndian.Uint32(foot[:]); stored != crc {
		return fmt.Errorf("csrg %s: payload checksum mismatch (%#08x != stored %#08x): file is corrupt", name, crc, stored)
	}
	return checkVertexCount(name, h.numVertices, total, maxID)
}

// checkVertexCount holds a decoded file's header vertex count to its edges,
// for every decoder: with edges, the largest id they hold is the last
// vertex; without, there are no vertices, since writers derive the vertex
// set from edges.
func checkVertexCount(src string, numVertices uint64, numEdges int64, maxID VertexID) error {
	switch {
	case numEdges > 0 && uint64(maxID)+1 != numVertices:
		return fmt.Errorf("csrg %s: header says %d vertices but max edge id is %d", src, numVertices, maxID)
	case numEdges == 0 && numVertices != 0:
		return fmt.Errorf("csrg %s: %d vertices with no edges (writers derive the vertex set from edges)", src, numVertices)
	}
	return nil
}

// CSRWriter is the streaming side of the binary format: it converts an edge
// stream to a .csrg file in one pass and O(batch) memory. Counts are unknown
// until the stream ends, so the destination must be seekable (the header is
// patched on Close); the written file carries no CSR sections — readers
// rebuild adjacency lazily, exactly as with text edge lists.
type CSRWriter struct {
	ws     io.WriteSeeker
	enc    *csrEncoder
	maxID  VertexID
	closed bool
	err    error
}

// NewCSRWriterVersion starts a .csrg document of the given format version on
// ws (typically an *os.File) and writes a placeholder header: version 1
// streams fixed-width records, version 2 delta+varint-compressed edge blocks.
func NewCSRWriterVersion(ws io.WriteSeeker, name string, version int) (*CSRWriter, error) {
	enc, err := newCSREncoder(ws, name, version, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return &CSRWriter{ws: ws, enc: enc}, nil
}

// Append writes one batch of edges. The slice is not retained.
func (w *CSRWriter) Append(edges []Edge) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("csrg %s: Append after Close", w.enc.name)
	}
	for _, e := range edges {
		w.maxID = max(w.maxID, e.Src, e.Dst)
	}
	w.err = w.enc.append(edges)
	return w.err
}

// Close writes the checksum footer, patches the edge/vertex counts (and the
// v2 block count) into the header, and leaves the file positioned at its
// end. The receiver is unusable afterwards; closing the underlying file
// remains the caller's job.
func (w *CSRWriter) Close() error {
	if w.err != nil || w.closed {
		return w.err
	}
	w.closed = true
	e := w.enc
	if err := e.finish(); err != nil {
		return err
	}
	end, err := w.ws.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	numVertices := uint64(0)
	if e.edges > 0 {
		numVertices = uint64(w.maxID) + 1
	}
	counts := binary.LittleEndian.AppendUint64(nil, numVertices)
	if err := w.patch(8, binary.LittleEndian.AppendUint64(counts, uint64(e.edges))); err != nil {
		return err
	}
	if e.version == CSRVersion2 {
		// The block count sits at the start of the payload, outside the
		// CRC, so patching it cannot invalidate the streamed checksum.
		if err := w.patch(int64(e.hdrLen), binary.LittleEndian.AppendUint32(nil, csrV2Blocks(e.edges))); err != nil {
			return err
		}
	}
	_, err = w.ws.Seek(end, io.SeekStart)
	return err
}

// patch overwrites the file at off with b.
func (w *CSRWriter) patch(off int64, b []byte) error {
	if _, err := w.ws.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err := w.ws.Write(b)
	return err
}

// --- dispatch ---------------------------------------------------------

// isCSR reports whether b starts with the .csrg magic and the version field.
// A version this reader does not support still counts, so that file is
// rejected by name instead of being fed to the text parser.
func isCSR(b []byte) bool { return len(b) >= 6 && string(b[:4]) == csrMagic }

// StreamFile streams a graph file batch-by-batch in whichever format the
// file holds — .csrg by its magic, text otherwise — with the same contract
// for both: fn sees every edge in stream order, memory stays bounded
// whatever the file's size, and the totals are returned. The bound is
// O(batchSize) for text and v1; v2 always decodes one whole block, 512 KiB
// of edges (plus its encoded bytes), however small batchSize is.
func StreamFile(path string, batchSize int, fn func(offset int64, edges []Edge) error) (int64, VertexID, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var head [6]byte
	n, err := f.ReadAt(head[:], 0)
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	if isCSR(head[:n]) {
		return streamCSR(path, f, batchSize, fn)
	}
	return streamEdgeList(path, f, batchSize, fn)
}

// IsCSRPath reports whether path carries the conventional binary extension,
// .csrg. Writers use it to pick an output format; readers sniff content
// instead.
func IsCSRPath(path string) bool {
	return strings.HasSuffix(strings.ToLower(path), ".csrg")
}
