package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// churnDecodeAgrees decodes b with parseChurn and, when it accepts, with
// encoding/json as the fallback would, and fails t unless both give the
// same batch after the fallback's conversion to edges (nil and empty
// slices told apart). It reports whether parseChurn accepted.
func churnDecodeAgrees(t *testing.T, b []byte) bool {
	t.Helper()
	fast, ok := parseChurn(b)
	if !ok {
		if !reflect.DeepEqual(fast, churnBatch{}) {
			t.Fatalf("parseChurn declined %q with %#v, not the zero batch", b, fast)
		}
		return false
	}
	var req churnRequest
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
		t.Fatalf("parseChurn accepted %q; encoding/json: %v", b, err)
	}
	if slow := req.batch(); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("%q:\nparseChurn    %#v\nencoding/json %#v", b, fast, slow)
	}
	return true
}

// serviceDocChurnBody is the POST /v1/churn body of docs/SERVICE.md's curl
// example.
func serviceDocChurnBody(tb testing.TB) string {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVICE.md"))
	if err != nil {
		tb.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "localhost:7474/v1/churn \\\n  -d '")
	body, _, ok2 := strings.Cut(rest, "'")
	if !ok || !ok2 {
		tb.Fatal("docs/SERVICE.md has no churn curl example")
	}
	return body
}

// workloadChurnBody writes a batch in the shape the service-churn
// workload of the benchmark module sends: compact, keys in struct order,
// every key present, parts 16.
func workloadChurnBody(stream, strategy string, adds, dels [][2]uint32) []byte {
	b := fmt.Appendf(nil, `{"stream":%q,"strategy":%q,"parts":16`, stream, strategy)
	for _, x := range []struct {
		key   string
		pairs [][2]uint32
	}{{"adds", adds}, {"dels", dels}} {
		b = fmt.Appendf(b, `,%q:[`, x.key)
		for i, p := range x.pairs {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, "[%d,%d]", p[0], p[1])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// churnRing is the block of edges a benchmark churn stream walks round,
// sized as one stream of the service-churn workload: the second half of
// its PrefAttach(50 000, 10) graph (about the block of its HDRF client at
// two clients), cut to whole 256-edge batches.
var churnRing = sync.OnceValue(func() []graph.Edge {
	social := gen.PrefAttach("social", 50_000, 10, 1).Edges
	ring := social[len(social)/2:]
	return ring[:len(ring)/256*256]
})

// ringEdges returns n edges of churnRing, from the at-th on.
func ringEdges(at, n int) [][2]uint32 {
	ring := churnRing()
	out := make([][2]uint32, n)
	for i := range out {
		e := ring[(at+i)%len(ring)]
		out[i] = [2]uint32{e.Src, e.Dst}
	}
	return out
}

// ringBatch is the workload's batch at position at: n adds ahead of and
// n dels behind a window of benchPreload live edges.
func ringBatch(stream, strategy string, n, at int) []byte {
	return workloadChurnBody(stream, strategy, ringEdges(at+benchPreload, n), ringEdges(at, n))
}

const benchPreload = 75_000 // live edges of a churn stream, as in the workload

// TestParseChurnTakesRealTraffic holds the fast path to the bodies real
// clients send: were it to decline them, the fallback would still answer
// correctly and only the speed would be lost, which nothing else checks.
func TestParseChurnTakesRealTraffic(t *testing.T) {
	bodies := map[string]string{
		"service doc example":  serviceDocChurnBody(t),
		"race battery":         churnBody("battery", batteryEdges(1, 2), batteryEdges(0, 3)),
		"race battery no dels": churnBody("battery", batteryEdges(2, 0), nil),
	}
	for _, n := range []int{4, 32, 256} {
		bodies["workload batch of "+strconv.Itoa(n)] = string(ringBatch("client0", "2D", n, 3*n))
	}
	for name, b := range bodies {
		if !churnDecodeAgrees(t, []byte(b)) {
			t.Errorf("%s: parseChurn declined %.80q", name, b)
		}
	}
}

// TestChurnScanUintBounds pins churnScan.uint at its bounds: the largest
// value it takes, the digit that would pass it, a leading zero and bytes
// next to the digits, then the same numbers inside whole bodies, which
// parseChurn accepts as encoding/json decodes them or declines.
func TestChurnScanUintBounds(t *testing.T) {
	for _, c := range []struct {
		in   string
		max  uint64
		n    uint64
		ok   bool
		rest string // what the scan leaves
	}{
		{"4294967295]", math.MaxUint32, math.MaxUint32, true, "]"},
		{"42949672950]", math.MaxUint32, math.MaxUint32, true, "0]"},
		{"4294967296]", math.MaxUint32, 429496729, true, "6]"},
		{"9223372036854775807,", math.MaxInt, math.MaxInt, true, ","},
		{"9223372036854775808,", math.MaxInt, 922337203685477580, true, "8,"},
		{"18446744073709551615", math.MaxUint64, math.MaxUint64, true, ""},
		{" \t\n7,", math.MaxUint32, 7, true, ","},
		{"0]", math.MaxUint32, 0, true, "]"},
		{"00]", math.MaxUint32, 0, true, "0]"},
		{"01]", math.MaxUint32, 0, true, "1]"},
		{"-1]", math.MaxUint32, 0, false, "-1]"},
		{"/1", math.MaxUint32, 0, false, "/1"},
		{":1", math.MaxUint32, 0, false, ":1"},
		{"12e3", math.MaxUint32, 12, true, "e3"},
		{"  ", math.MaxUint32, 0, false, ""},
	} {
		s := churnScan{b: []byte(c.in)}
		n, ok := s.uint(c.max)
		if n != c.n || ok != c.ok || string(s.b[s.i:]) != c.rest {
			t.Errorf("uint(%q, %d) = %d, %v leaving %q; want %d, %v leaving %q", c.in, c.max, n, ok, s.b[s.i:], c.n, c.ok, c.rest)
		}
	}
	for body, accept := range map[string]bool{
		`{"adds":[[4294967295,0]]}`:     true,
		`{"adds":[[0,4294967295]]}`:     true,
		`{"adds":[[42949672950,0]]}`:    false,
		`{"adds":[[0,42949672950]]}`:    false,
		`{"parts":9223372036854775807}`: true,
		`{"adds":[[0,00]]}`:             false,
		`{"adds":[[01,2]]}`:             false,
		`{"adds":[[-1,2]]}`:             false,
	} {
		if got := churnDecodeAgrees(t, []byte(body)); got != accept {
			t.Errorf("parseChurn(%s) accepted %v, want %v", body, got, accept)
		}
	}
}

// FuzzChurnDecode holds parseChurn to encoding/json: any body it accepts
// must decode to the same request there. A body it declines is decoded by
// encoding/json itself, so declining is always correct.
func FuzzChurnDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_golden.txt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, sec := range strings.Split(string(golden), "\n## ") {
		if _, rest, ok := strings.Cut(sec, "\n> POST /v1/churn\n> "); ok {
			body, _, _ := strings.Cut(rest, "\n")
			f.Add([]byte(body)) // every churn body the wire tests send
		}
	}
	f.Add([]byte(serviceDocChurnBody(f)))
	f.Add([]byte(churnBody("battery", batteryEdges(0, 1), batteryEdges(0, 0))))
	f.Add(ringBatch("client3", "2D", 4, 0))
	for _, seed := range []string{
		`{}`, ` {"parts":0} `, "\t{\n\"adds\" : [ [ 1 , 2 ] ] ,\r\"dels\":[]}",
		`{"Stream":"a"}`, `{"STRATEGY":"2D"}`, `{"adds":[[1,2]],"Adds":[]}`,
		`{"adds":[[0,1,7]]}`, `{"adds":[[2]]}`, `{"adds":[[]]}`, `{"adds":null}`, `null`,
		`{"parts":-0}`, `{"parts":1e2}`, `{"parts":1.0}`, `{"parts":01}`, `{"parts":"4"}`,
		`{"adds":[[4294967295,0]]}`, `{"adds":[[4294967296,0]]}`, `{"parts":9223372036854775808}`,
		`{"adds":[[0,4294967295]]}`, `{"adds":[[42949672950,0]]}`, `{"adds":[[0,42949672950]]}`,
		`{"parts":9223372036854775807}`, `{"adds":[[0,00]]}`, `{"adds":[[01,2]]}`, `{"adds":[[-1,2]]}`,
		`{"stream":"a\"b"}`, `{"stream":"\u0041"}`, `{"stream":"a\\b"}`, "{\"stream\":\"\xff\"}",
		"{\"stream\":\"\xc3\xa9\"}", "{\"stream\":\"a\tb\"}",
		`{"stream":"a","stream":"b"}`, `{"adds":[[1,2]],"adds":[]}`, `{"adds":[[1,2],[3,4]],"adds":[[5,6]]}`,
		`{"stream":"a"}junk`, `{"stream":"a"}}`, `{"stream":"a",}`, `{"stream":"a"`, `{"adds":[[1,2],]}`,
		`{"padding":"x"}`, `[]`, ``,
		`{"adds`, `{"adds":[[1,2]`, `{"adds":[[1,2]],"stream":"[[[["}`, `{"dels":[[1,2],[3,4]]}[[[[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) { churnDecodeAgrees(t, b) })
}

// BenchmarkChurnPost prices one POST /v1/churn through the handler stack
// at the service-churn workload's batch sizes and per-stream footprint: a
// stream at 16 parts holding benchPreload live edges of churnRing, for the
// strategies of the workload's first two clients, 2D (stateless) and HDRF
// (greedy). A sub-benchmark pre-loads its stream once and carries its ring
// cursor across rounds, so neither the timings nor a CPU profile count the
// pre-load.
func BenchmarkChurnPost(b *testing.B) {
	srv := New(Config{})
	b.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // no job ran
	h := srv.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		req, _ := http.NewRequest(http.MethodPost, "/v1/churn", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, strategy := range []string{"2D", "HDRF"} {
		for _, n := range []int{4, 32, 256} {
			stream := fmt.Sprintf("bench-%s-%d", strategy, n)
			if rec := post(workloadChurnBody(stream, strategy, ringEdges(0, benchPreload), nil)); rec.Code != http.StatusOK {
				b.Fatalf("pre-load: %d %s", rec.Code, rec.Body)
			}
			bodies := make([][]byte, len(churnRing())/n)
			for i := range bodies {
				bodies[i] = ringBatch(stream, strategy, n, i*n)
			}
			next := 0
			b.Run(fmt.Sprintf("%s/%d+%d", strategy, n, n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if rec := post(bodies[next]); rec.Code != http.StatusOK {
						b.Fatalf("batch %d: %d %s", next, rec.Code, rec.Body)
					}
					next = (next + 1) % len(bodies)
				}
			})
		}
	}
}
