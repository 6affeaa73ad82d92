package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unicode"
	"unicode/utf8"
)

// refStreamEdgeList is the text parser as it stood before the byte-level
// chunk parser replaced it — bufio.Scanner, strings.Fields and two
// strconv.ParseUint per line — kept verbatim as the reference the new
// feeders are compared against. Only the scanner's line cap is lifted (the
// cap was a bug, not a contract).
func refStreamEdgeList(name string, r io.Reader, batchSize int, fn func(offset int64, edges []Edge) error) (int64, VertexID, error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	batch := make([]Edge, 0, batchSize)
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return total, maxID, fmt.Errorf("edge list %s line %d: want at least 2 fields, got %q", name, lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return total, maxID, fmt.Errorf("edge list %s line %d: bad src: %w", name, lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return total, maxID, fmt.Errorf("edge list %s line %d: bad dst: %w", name, lineNo, err)
		}
		if VertexID(src) > maxID {
			maxID = VertexID(src)
		}
		if VertexID(dst) > maxID {
			maxID = VertexID(dst)
		}
		batch = append(batch, Edge{VertexID(src), VertexID(dst)})
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return total, maxID, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, maxID, fmt.Errorf("edge list %s: %w", name, err)
	}
	if err := flush(); err != nil {
		return total, maxID, err
	}
	return total, maxID, nil
}

// hasUnicodeOnlySpace reports whether data holds a non-ASCII rune the
// reference treats as whitespace: the one documented input class on which
// the byte parser and the reference may part ways.
func hasUnicodeOnlySpace(data []byte) bool {
	for len(data) > 0 {
		r, n := utf8.DecodeRune(data)
		if r >= utf8.RuneSelf && unicode.IsSpace(r) {
			return true
		}
		data = data[n:]
	}
	return false
}

// parsed is what one parser made of an input.
type parsed struct {
	edges []Edge
	maxID VertexID
	err   error
}

func collectStream(stream func(string, io.Reader, int, func(int64, []Edge) error) (int64, VertexID, error), name string, r io.Reader, batchSize int) (p parsed, batches [][2]int64) {
	total, maxID, err := stream(name, r, batchSize, func(offset int64, edges []Edge) error {
		batches = append(batches, [2]int64{offset, int64(len(edges))})
		p.edges = append(p.edges, edges...)
		return nil
	})
	p.maxID, p.err = maxID, err
	if err == nil && total != int64(len(p.edges)) {
		p.err = fmt.Errorf("returned total %d but delivered %d edges", total, len(p.edges))
	}
	return p, batches
}

// agree fails the test unless got matches the reference: same verdict, on
// rejection the same message (which carries the line number and strconv's
// wording), on acceptance the same edges in the same order and the same
// max id.
func agree(t *testing.T, what string, data []byte, ref, got parsed) {
	t.Helper()
	switch {
	case (ref.err == nil) != (got.err == nil):
		t.Fatalf("%s on %q: err = %v, reference err = %v", what, clip(data), got.err, ref.err)
	case ref.err != nil:
		if got.err.Error() != ref.err.Error() {
			t.Fatalf("%s on %q: err = %q, reference %q", what, clip(data), got.err, ref.err)
		}
	case !slices.Equal(got.edges, ref.edges):
		t.Fatalf("%s on %q: %d edges %v, reference %d %v", what, clip(data), len(got.edges), clipEdges(got.edges), len(ref.edges), clipEdges(ref.edges))
	case got.maxID != ref.maxID:
		t.Fatalf("%s on %q: max id %d, reference %d", what, clip(data), got.maxID, ref.maxID)
	}
}

func clip(b []byte) []byte      { return b[:min(len(b), 200)] }
func clipEdges(e []Edge) []Edge { return e[:min(len(e), 12)] }

// graphParsed adapts a materializing loader's result.
func graphParsed(g *Graph, err error) parsed {
	if err != nil {
		return parsed{err: err}
	}
	p := parsed{edges: g.Edges}
	if g.NumVertices() > 0 {
		p.maxID = VertexID(g.NumVertices() - 1)
	}
	return p
}

// checkAgainstReference runs every text feeder over data and compares each
// with the reference: streamEdgeList at two batch sizes (with the reference's
// batch boundaries), the in-memory chunk fan-out at each given chunk size at
// one and four workers, and LoadFile through a file in dir — unless the
// input is legal with an absurd vertex space, which would materialize O(max
// id) degree arrays, or starts with the .csrg magic, which LoadFile decodes
// as binary.
func checkAgainstReference(t *testing.T, data []byte, dir string, chunkSizes ...int) {
	t.Helper()
	ref, _ := collectStream(refStreamEdgeList, "in", bytes.NewReader(data), 0)
	for _, batchSize := range []int{0, 3} {
		_, refBatches := collectStream(refStreamEdgeList, "in", bytes.NewReader(data), batchSize)
		got, batches := collectStream(streamEdgeList, "in", bytes.NewReader(data), batchSize)
		agree(t, fmt.Sprintf("streamEdgeList(batch %d)", batchSize), data, ref, got)
		if ref.err == nil && !slices.Equal(batches, refBatches) {
			t.Fatalf("streamEdgeList(batch %d) on %q: batches (offset, len) %v, reference %v", batchSize, clip(data), batches, refBatches)
		}
	}
	// Readers that hand every line over in pieces, and the last bytes
	// together with io.EOF: the carried-over partial line.
	got, _ := collectStream(streamEdgeList, "in", iotest.DataErrReader(iotest.OneByteReader(bytes.NewReader(data))), 3)
	agree(t, "streamEdgeList(one byte per read)", data, ref, got)
	got, _ = collectStream(streamEdgeList, "in", iotest.DataErrReader(bytes.NewReader(data)), 0)
	agree(t, "streamEdgeList(data with EOF)", data, ref, got)
	for _, chunkSize := range chunkSizes {
		for _, workers := range []int{1, 4} {
			edges, err := parseEdgeList("in", data, chunkSize, workers)
			got := parsed{edges: edges, maxID: ref.maxID, err: err}
			agree(t, fmt.Sprintf("parseEdgeList(chunk %d, workers %d)", chunkSize, workers), data, ref, got)
		}
	}
	if (ref.err == nil && ref.maxID >= 1<<22) || isCSR(data) {
		return
	}
	path := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path) // names its errors after the path, so the reference must too
	refAtPath, _ := collectStream(refStreamEdgeList, path, bytes.NewReader(data), 0)
	agree(t, "LoadFile", data, refAtPath, graphParsed(g, err))
}

// edgeListSeeds is the fuzz seed corpus of FuzzParseEdgeList; the
// differential test replays it too.
var edgeListSeeds = [][]byte{
	[]byte("0 1\n1 2\n2 0\n"),
	[]byte("# SNAP comment\n% DIMACS comment\n\n5 1\t\n 1 5 \n"),
	[]byte("0 1 extra fields ignored\n"),
	[]byte("1\n"),                    // too few fields
	[]byte("a b\n"),                  // non-numeric
	[]byte("1 99999999999999999999"), // overflows uint32
	[]byte("4294967295 0\n"),         // max uint32 id
	[]byte("-1 2\n"),
	[]byte(strings.Repeat("#", 2000) + "\n0 1"),
	[]byte("0 1\r\n1 2\r\n\r\n# c\r\n2 0\r"),        // CRLF, bare CR at the end
	[]byte("1 2\n3 4294967296\n5 6\n"),              // dst one past the range
	[]byte("00000000000000000000000007 0009\n"),     // leading zeros past 20 digits
	[]byte("1 2\n\n\n# c\n \t \n3 x4\n"),            // error after skipped lines
	[]byte("1\v2\f3\n+1 2\n"),                       // \v and \f separate; a sign does not parse
	[]byte("1 2#c\n"),                               // '#' inside a field is not a comment
	[]byte("  # indented comment\n  %x\n7 8 # c\n"), // comment after blanks; trailing field ignored
	[]byte("1 2\x00\n"),
	[]byte("1_0 2\n0x1 2\n"),
}

// TestTextFeedersAgreeWithReference is the differential net under the
// chunk parser: hand-written edge cases, the fuzz seeds, and a generated
// file cut at 64 bytes so that comments, blank lines, CRLF and the bad line
// all straddle chunk cuts.
func TestTextFeedersAgreeWithReference(t *testing.T) {
	dir := t.TempDir()
	cases := append([][]byte{}, edgeListSeeds...)
	for _, s := range []string{
		"",
		"\n",
		"\n\n\n",
		"# only a comment",
		"0 1",          // no final newline
		"0 1\n2 3",     // … after a full line
		"0\t1\n2 \t 3", // tabs
		"0 1 2 3 4 5\n6 7 weight=0.5\n",
		"4294967295 4294967295\n",
		"4294967296 0\n",
		"0 -1\n",
		"1 2\n3\n",
		"1 2\n \n3 4 \n   \n",
		"1 2\n3 4\n5 6\n7 8\n9 10\n11 12\n13 x\n", // error past several full batches of 3
		"x\n1 2\n",
		"1 \n",
		" 1\n",
		"12345678901 1\n",
		"1 2\xff\n",
		"\xff\xfe1 2\n",
	} {
		cases = append(cases, []byte(s))
	}
	for _, data := range cases {
		checkAgainstReference(t, data, dir, 1, 7, 64, edgeListChunk)
	}

	// A generated file: every kind of line, repeated so that each kind lands
	// on, before and after a 64-byte cut; then the same file with one bad
	// line near the end, and with a second bad line after it that must not
	// be the one reported.
	var sb strings.Builder
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		src, dst := (x>>33)%100000, (x>>13)%1000
		switch x % 11 {
		case 0:
			fmt.Fprintf(&sb, "# comment %d\n", i)
		case 1:
			sb.WriteString("\n")
		case 2:
			fmt.Fprintf(&sb, "%d\t%d\r\n", src, dst)
		case 3:
			fmt.Fprintf(&sb, "  %d   %d  %d\n", src, dst, i)
		case 4:
			fmt.Fprintf(&sb, "%% %s\n", strings.Repeat("long ", int(x>>40)%40))
		default:
			fmt.Fprintf(&sb, "%d %d\n", src, dst)
		}
	}
	good := sb.String()
	checkAgainstReference(t, []byte(good), dir, 64, 4096)
	checkAgainstReference(t, []byte(good+"17 4294967296\n1 2\n"), dir, 64, 4096)
	checkAgainstReference(t, []byte(good+"17 oops\n1 2\n"+good+"3\n"), dir, 64, 4096)

	// Several refills of streamEdgeList's buffer and several real chunks of
	// LoadFile's, with a line longer than either in the middle.
	big := strings.Repeat(good, 12) + "# " + strings.Repeat("x", 2*edgeListChunk) + "\n" + strings.Repeat(good, 12)
	checkAgainstReference(t, []byte(big), dir, edgeListChunk)
	checkAgainstReference(t, []byte(big+"5 5 5\n5\n"), dir, edgeListChunk)
}

// TestLoadEdgeListErrorNamesLowestBadLine pins the error's line number on a
// file with bad lines in several chunks, at worker counts that parse the
// later chunks first or at the same time.
func TestLoadEdgeListErrorNamesLowestBadLine(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 4000; i++ {
		if i == 1234 || i == 1235 || i == 3999 {
			sb.WriteString("bad line\n")
		} else {
			fmt.Fprintf(&sb, "%d %d\n", i, i+1)
		}
	}
	line := regexp.MustCompile(`line (\d+):`)
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := parseEdgeList("f", []byte(sb.String()), 64, workers)
		if err == nil {
			t.Fatalf("workers %d: accepted a file with bad lines", workers)
		}
		if m := line.FindStringSubmatch(err.Error()); m == nil || m[1] != "1234" {
			t.Errorf("workers %d: error %q does not name line 1234", workers, err)
		}
	}
}
