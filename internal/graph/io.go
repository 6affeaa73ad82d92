package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode/utf8"

	"graphpart/internal/par"
)

// DefaultBatchSize is the edge-batch granularity used by the streaming
// readers when callers pass batchSize ≤ 0.
const DefaultBatchSize = 1 << 16

// The text edge list — one "src dst" pair per line, the storage format the
// paper uses for every dataset (§4.2) — has one parser, parseEdgeLines,
// which works on bytes and allocates nothing, and two feeders that decide
// only where the bytes come from: StreamEdgeList refills one pooled buffer
// from any io.Reader, LoadEdgeList cuts a whole file at newline boundaries
// and parses the pieces on par.Do workers.
//
// A line is what lies between two '\n' bytes (the last line needs none).
// Fields are separated by ASCII whitespace — space, \t, \v, \f, \r, so a
// CRLF file is no special case; blank lines and lines whose first field
// starts with '#' or '%' (the SNAP and DIMACS comment conventions) are
// skipped; the first two fields are decimal vertex ids in [0, 2^32) and any
// further fields are ignored. Anything else is rejected with its line
// number. Unicode-only whitespace (U+0085, U+00A0, U+2000…) is an ordinary
// byte sequence here and does not separate fields: the one difference from
// the line-scanner loop over Unicode-aware field splitting this parser
// replaced, which io_ref_test.go keeps as the reference the tests compare
// against.

// isBlank marks the ASCII whitespace that separates the fields of a line.
var isBlank = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}

// lineEnd returns the index just past the first '\n' at or after b[i], or
// len(b) when the line is b's last and unterminated.
func lineEnd(b []byte, i int) int {
	if j := bytes.IndexByte(b[i:], '\n'); j >= 0 {
		return i + j + 1
	}
	return len(b)
}

// digitRun reads the decimal digits at b[i:] as a vertex id and returns it
// with the index it stopped at: the first non-digit, or the digit that
// takes the value out of range. Checking the range at every digit keeps v
// below 2^36, so leading zeros of any length are free.
func digitRun(b []byte, i int) (VertexID, int) {
	var v uint64
	for i < len(b) {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		if v = v*10 + d; v > math.MaxUint32 {
			break
		}
		i++
	}
	return VertexID(v), i
}

// parseEdgeLines parses the lines of b — the first of which is line number
// line of the source — and appends their edges to dst. It never grows dst:
// it stops in front of the first edge that finds dst full, so a caller
// either sizes dst for every line of b (LoadEdgeList) or drains dst and
// calls again (StreamEdgeList). It returns the extended dst, the bytes and
// lines it consumed (whole lines only) and the largest id it appended. b
// must end at a line boundary; only its last line may lack the '\n'.
func parseEdgeLines(name string, b []byte, line int, dst []Edge) (_ []Edge, used, lines int, maxID VertexID, err error) {
	i := 0
	for i < len(b) {
		start := i
		for i < len(b) && isBlank[b[i]] {
			i++
		}
		if i == len(b) || b[i] == '\n' || b[i] == '#' || b[i] == '%' {
			i = lineEnd(b, i)
			lines++
			continue
		}
		if len(dst) == cap(dst) {
			return dst, start, lines, maxID, nil
		}
		// Two digit runs, the first ended by a blank, the second by a blank
		// or the end of the line; on any other byte strconv words the error.
		src, j := digitRun(b, i)
		if j == i || j == len(b) || !isBlank[b[j]] {
			return dst, start, lines, maxID, badEdgeLine(name, line+lines, b[start:lineEnd(b, j)])
		}
		for i = j + 1; i < len(b) && isBlank[b[i]]; i++ {
		}
		dstID, j := digitRun(b, i)
		if j == i || (j < len(b) && b[j] != '\n' && !isBlank[b[j]]) {
			return dst, start, lines, maxID, badEdgeLine(name, line+lines, b[start:lineEnd(b, j)])
		}
		if i = j; i < len(b) && b[i] == '\n' {
			i++ // the common line needs no search for its end
		} else {
			i = lineEnd(b, i)
		}
		maxID = max(maxID, src, dstID)
		dst = append(dst, Edge{src, dstID})
		lines++
	}
	return dst, i, lines, maxID, nil
}

// badEdgeLine words the rejection of a line parseEdgeLines could not take:
// fewer than two fields, or a field strconv.ParseUint refuses as a uint32
// (the digit loop accepts exactly what ParseUint accepts, so one of the two
// calls below fails).
func badEdgeLine(name string, lineNo int, line []byte) error {
	line = bytes.Trim(line, " \t\n\v\f\r")
	fields := bytes.FieldsFunc(line, func(r rune) bool { return r < utf8.RuneSelf && isBlank[r] })
	if len(fields) < 2 {
		return fmt.Errorf("edge list %s line %d: want at least 2 fields, got %q", name, lineNo, line)
	}
	if _, err := strconv.ParseUint(string(fields[0]), 10, 32); err != nil {
		return fmt.Errorf("edge list %s line %d: bad src: %w", name, lineNo, err)
	}
	_, err := strconv.ParseUint(string(fields[1]), 10, 32)
	return fmt.Errorf("edge list %s line %d: bad dst: %w", name, lineNo, err)
}

// StreamEdgeList parses a plain-text edge list (format above) from r in
// batches of batchSize edges, calling fn with each batch's offset (global
// index of its first edge) and edges. The batch slice is reused between
// calls; fn must copy anything it retains. Memory stays O(batchSize)
// regardless of input size, which is what lets stateless strategies
// partition edge lists that never fit in memory: the bytes pass through one
// pooled buffer that holds whole lines plus the partial last one, and grows
// only for a single line longer than itself (no line-length cap).
//
// It returns the total edge count and the maximum vertex id seen (0 when
// the stream held no edges).
func StreamEdgeList(name string, r io.Reader, batchSize int, fn func(offset int64, edges []Edge) error) (int64, VertexID, error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	batchp := getEdgeBuf(batchSize)
	defer putEdgeBuf(batchp)
	batch := (*batchp)[:0:batchSize]
	var total int64
	var maxID VertexID
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := fn(total, batch); err != nil {
			return err
		}
		total += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	bufp := getByteBuf(edgeListChunk)
	defer func() { putByteBuf(bufp) }()
	buf := (*bufp)[:cap(*bufp)]
	// buf[:held] is read but unparsed — the start of one line, with no '\n'
	// in it, so only new bytes are searched — and that line is number line.
	held, line := 0, 1
	for {
		if held == len(buf) { // one line fills the buffer: continue it in a larger one
			grown := getByteBuf(2 * len(buf))
			copy((*grown)[:held], buf)
			putByteBuf(bufp)
			bufp, buf = grown, (*grown)[:cap(*grown)]
		}
		n, rerr := r.Read(buf[held:])
		whole := 0 // buf[:whole] is whole lines
		if rerr == io.EOF {
			whole = held + n // the input's last line needs no '\n'
		} else if j := bytes.LastIndexByte(buf[held:held+n], '\n'); j >= 0 {
			whole = held + j + 1
		}
		held += n
		for pos := 0; pos < whole; {
			filled, used, lines, m, err := parseEdgeLines(name, buf[pos:whole], line, batch)
			if err != nil {
				return total, maxID, err
			}
			batch, pos, line, maxID = filled, pos+used, line+lines, max(maxID, m)
			if pos < whole { // stopped for room
				if err := flush(); err != nil {
					return total, maxID, err
				}
			}
		}
		if whole > 0 {
			held = copy(buf, buf[whole:held])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return total, maxID, fmt.Errorf("edge list %s: %w", name, rerr)
		}
	}
	if err := flush(); err != nil {
		return total, maxID, err
	}
	return total, maxID, nil
}

// ReadEdgeList parses a plain-text edge list into a materialized Graph: it
// is StreamEdgeList with the batches collected, for input that is not a
// file.
func ReadEdgeList(name string, r io.Reader) (*Graph, error) {
	var edges []Edge
	if _, _, err := StreamEdgeList(name, r, 0, func(_ int64, batch []Edge) error {
		edges = append(edges, batch...)
		return nil
	}); err != nil {
		return nil, err
	}
	return FromEdges(name, edges), nil
}

// edgeListChunk is how much of a file one parse task takes (cuts move
// forward to the next line boundary): small enough that a few MiB of text
// still spread over every worker, large enough that a task's fixed cost
// disappears.
const edgeListChunk = 256 << 10

// LoadEdgeList reads an edge-list file from disk: the whole file is mapped
// (or, where it cannot be, read) once and its lines parsed on parallel
// workers straight into one exactly sized edge slice. Edge order, the line
// an error names and the resulting Graph do not depend on the worker count,
// and the Graph never aliases the file's bytes.
func LoadEdgeList(path string) (*Graph, error) {
	data, release, err := readOnlyFile(path)
	if err != nil {
		return nil, err
	}
	defer release()
	edges, err := parseEdgeList(path, data, edgeListChunk, par.Workers(0))
	if err != nil {
		return nil, err
	}
	return FromEdges(path, edges), nil
}

// readOnlyFile returns the bytes of the file at path, not to be written to,
// and the function that gives them back: a private mapping where the
// platform has one — no heap, and the parse workers fault the pages in side
// by side — or else one os.ReadFile.
func readOnlyFile(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 && int64(int(fi.Size())) == fi.Size() {
		if ref, err := mmapFile(f, fi.Size()); err == nil {
			return ref.data, ref.unmap, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, func() {}, err
}

// textChunk is one parse task of parseEdgeList: whole lines of the input
// and the range of the shared edge slice they may fill.
type textChunk struct {
	data  []byte
	lines int    // lines in data, an upper bound on its edges
	line  int    // number of its first line
	edges []Edge // cap is lines; after the parse, the edges found
	err   error
}

// parseEdgeList parses a whole edge list held in memory on up to workers
// goroutines. data is cut into pieces of about chunkSize bytes that end at
// line boundaries; counting each piece's lines first gives every piece its
// first line number and a private range of one edge slice allocated at the
// exact upper bound, so the pieces parse independently; then the gaps that
// comment and blank lines left are closed in piece order. The result is
// therefore the sequential parse's at any chunkSize and worker count, and
// on bad input the error is the one for the lowest bad line.
func parseEdgeList(name string, data []byte, chunkSize, workers int) ([]Edge, error) {
	chunks := make([]textChunk, 0, len(data)/chunkSize+1)
	for len(data) > 0 {
		end := len(data)
		if chunkSize < end {
			end = lineEnd(data, chunkSize)
		}
		chunks = append(chunks, textChunk{data: data[:end]})
		data = data[end:]
	}
	par.Do(workers, len(chunks), func(c, _ int) {
		ch := &chunks[c]
		ch.lines = bytes.Count(ch.data, []byte{'\n'})
		if ch.data[len(ch.data)-1] != '\n' {
			ch.lines++
		}
	})
	total := 0
	for c := range chunks {
		chunks[c].line = 1 + total
		total += chunks[c].lines
	}
	edges := make([]Edge, total)
	for c := range chunks {
		ch := &chunks[c]
		first := ch.line - 1
		ch.edges = edges[first : first : first+ch.lines]
	}
	par.Do(workers, len(chunks), func(c, _ int) {
		ch := &chunks[c]
		ch.edges, _, _, _, ch.err = parseEdgeLines(name, ch.data, ch.line, ch.edges)
	})
	n := 0
	for c := range chunks {
		ch := &chunks[c]
		if ch.err != nil {
			return nil, ch.err
		}
		if first := ch.line - 1; n < first {
			copy(edges[n:], ch.edges)
		}
		n += len(ch.edges)
	}
	return edges[:n], nil
}

// WriteEdgeList writes the graph as a plain-text edge list with a header
// comment, in the same format ReadEdgeList accepts.
func WriteEdgeList(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %s: %d vertices, %d edges\n", g.Name, g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	if err := WriteEdgeBatch(bw, g.Edges); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEdgeBatch appends a batch of edges in edge-list format to w, the
// producer side of StreamEdgeList. Callers own any buffering and headers:
// the lines are formatted into a pooled buffer and reach w in few large
// writes, whatever w is.
func WriteEdgeBatch(w io.Writer, edges []Edge) error {
	const maxLine = 2*10 + 2 // two uint32 ids, a space, a newline
	bufp := getByteBuf(edgeListChunk)
	defer putByteBuf(bufp)
	buf := *bufp
	for _, e := range edges {
		if len(buf)+maxLine > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = strconv.AppendUint(buf, uint64(e.Src), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// SaveEdgeList writes the graph to a file at path.
func SaveEdgeList(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(g, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
