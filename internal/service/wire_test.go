package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"graphpart/internal/report"
)

// updateWire regenerates testdata/wire_golden.txt from the current replies.
var updateWire = flag.Bool("update", false, "rewrite testdata/wire_golden.txt")

// rowsNotOnTheWireGolden names the endpoint-table rows of a bugfix made
// after the golden was recorded, whose reply changed on purpose; every
// other row of TestEndpointTable is replayed.
var rowsNotOnTheWireGolden = map[string]bool{
	"churn absurd vertex id":                true, // PR 17: was 200 and ~477 MiB
	"churn absurd vertex id made no stream": true,
}

// Parts of a reply that depend on which other tests registered datasets in
// this process (the registry is global and permanent).
var (
	wireHave     = regexp.MustCompile(`\(have \[[^\]]*\]\)`)
	wireDatasets = regexp.MustCompile(`"datasets": \d+`)
)

// wireScript records replies in the golden's text form.
type wireScript struct {
	t   *testing.T
	out bytes.Buffer
}

// send runs one request and records its reply.
func (w *wireScript) send(s *Server, name, method, path, body string) {
	w.t.Helper()
	w.record(name, method, path, body, do(s, method, path, body))
}

// record appends the request line, status, Content-Type, Allow and the
// body bytes of one reply to the script.
func (w *wireScript) record(name, method, path, body string, rec *httptest.ResponseRecorder) {
	w.t.Helper()
	got := rec.Body.String()
	switch {
	case strings.HasPrefix(path, "/v1/metrics") && rec.Code == http.StatusOK:
		// Counters and latencies move with traffic and the clock: the
		// wire form of a cell is its key and unit.
		var m struct {
			Cells []report.Cell `json:"cells"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			w.t.Fatalf("%s: metrics reply: %v", name, err)
		}
		var b strings.Builder
		for _, c := range m.Cells {
			fmt.Fprintf(&b, "%s [%s]\n", c.Key(), c.Unit)
		}
		got = b.String()
	case path == "/v1/datasets" && rec.Code == http.StatusOK:
		// The paper's six come first; whatever tests registered follows.
		if i := strings.Index(got, `"name": "uk-web"`); i >= 0 {
			if j := strings.Index(got[i:], "\n    }"); j >= 0 {
				got = got[:i+j] + "\n    }…\n"
			}
		}
	}
	got = wireHave.ReplaceAllString(got, "(have [...])")
	got = wireDatasets.ReplaceAllString(got, `"datasets": N`)
	fmt.Fprintf(&w.out, "## %s\n> %s %s\n", name, method, path)
	if body != "" {
		fmt.Fprintf(&w.out, "> %s\n", body)
	}
	fmt.Fprintf(&w.out, "< %d\n< Content-Type: %s\n< Allow: %s\n%s\n",
		rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Allow"), got)
}

// insideTheCap are JSON values shorter than a 64-byte MaxBody, one per
// body-accepting endpoint. Sent five times over, the body passes the cap
// after its first value ends: a json.Decoder on the capped body would
// stop at that value and never meet the cap.
var insideTheCap = []struct{ path, first string }{
	{"/v1/churn", `{"stream":"cap","strategy":"2D","adds":[[0,1]]}`},
	{"/v1/advisor/fit", `{"schemaVersion":1,"experiments":[]}`},
}

// TestWireGolden replays a fixed script — every row of TestEndpointTable,
// then the 413, 405, 422, 504 and 503 paths — and compares status,
// Content-Type, Allow and body bytes with testdata/wire_golden.txt. The
// golden was recorded from the handlers as they stood before the request
// path was rewritten (PR 17) and must not change when the plumbing does.
func TestWireGolden(t *testing.T) {
	w := &wireScript{t: t}

	main := newTestServer(t, Config{DefaultParts: 4})
	for _, row := range endpointRows() {
		if !rowsNotOnTheWireGolden[row.name] {
			w.send(main, "table: "+row.name, row.method, row.path, row.body)
		}
	}
	for _, x := range []struct{ name, method, path, body string }{
		{"churn default stream and parts", http.MethodPost, "/v1/churn", `{"strategy":"Random","adds":[[5,6]]}`},
		{"churn default stream readback", http.MethodGet, "/v1/churn?strategy=Random", ""},
		{"churn multi-pass strategy rebuilds", http.MethodPost, "/v1/churn", `{"stream":"t3","strategy":"Hybrid","parts":4,"adds":[[0,1],[1,2],[2,0]]}`},
		{"churn post parts out of range", http.MethodPost, "/v1/churn", `{"strategy":"2D","parts":-3,"adds":[[0,1]]}`},
		{"churn get unknown strategy", http.MethodGet, "/v1/churn?strategy=NoSuchCut", ""},
		{"churn get non-numeric parts", http.MethodGet, "/v1/churn?strategy=2D&parts=some", ""},
		{"churn get parts out of range", http.MethodGet, "/v1/churn?strategy=2D&parts=5000", ""},
		{"churn method not allowed", http.MethodPut, "/v1/churn", ""},
		{"advisor fit nothing to fit", http.MethodPost, "/v1/advisor/fit", `{"schemaVersion":1,"tool":"wire","experiments":[]}`},
		{"advise defaults", http.MethodGet, "/v1/advise?dataset=road-ca", ""},
		{"advise non-numeric machines", http.MethodGet, "/v1/advise?dataset=road-ca&machines=x", ""},
		{"advise unmeasured app", http.MethodGet, "/v1/advise?dataset=road-ca&app=NoSuchApp", ""},
		{"advise unknown system", http.MethodGet, "/v1/advise?dataset=road-ca&system=Giraph", ""},
		{"unrouted path", http.MethodGet, "/v1/nope", ""},
	} {
		w.send(main, "extra: "+x.name, x.method, x.path, x.body)
	}

	// 413 on every body-accepting endpoint.
	small := newTestServer(t, Config{MaxBody: 64})
	big := `{"dataset":"road-ca","strategy":"Grid","padding":"` + strings.Repeat("x", 256) + `"}`
	for _, path := range []string{"/v1/churn", "/v1/advisor/fit"} {
		w.send(small, "oversized: "+path, http.MethodPost, path, big)
	}
	// 413 too when the body's first value ends inside the cap.
	for _, x := range insideTheCap {
		w.send(small, "oversized: value ends inside the cap: "+x.path, http.MethodPost, x.path, strings.Repeat(x.first, 5))
	}

	// 504: the dataset cannot finish building before the gate opens, so
	// every wait on it ends at the deadline; an endpoint that waits on
	// nothing still answers.
	slowGate, _ := registerGatedDataset(t, "wire-slow")
	hurried := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	t.Cleanup(func() { close(slowGate) }) // before hurried's drain waits on its build
	w.send(hurried, "deadline: healthz waits on nothing", http.MethodGet, "/v1/healthz", "")
	w.send(hurried, "deadline: manifest", http.MethodGet, "/v1/datasets/wire-slow", "")
	w.send(hurried, "deadline: assignment", http.MethodGet, "/v1/assignment/wire-slow/Random?parts=2", "")
	w.send(hurried, "deadline: advisor fit", http.MethodPost, "/v1/advisor/fit",
		strings.ReplaceAll(fitReportJSON(), "road-ca", "wire-slow"))

	// 503 and the drain: a cold build held at its gate, the drain begun
	// behind it, a build asked for during the drain refused while what
	// waits on nothing still answers, then the held build finished, its
	// waiter answered and the build served warm.
	drainGate, drainBuilds := registerGatedDataset(t, "wire-drain")
	drain := newTestServer(t, Config{})
	const built = "/v1/assignment/road-ca/Grid?parts=4"
	w.send(drain, "drain: a key built before the drain", http.MethodGet, built, "")
	const held = "/v1/assignment/wire-drain/Random?parts=2"
	waiter := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiter <- do(drain, http.MethodGet, held, "") }()
	eventually(t, "the held build starting", func() bool { return drainBuilds.Load() == 1 })
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- drain.Shutdown(ctx)
	}()
	eventually(t, "the drain starting", drain.drainStarted)
	w.send(drain, "drain: a cold build is refused", http.MethodGet, "/v1/assignment/wire-drain/Random?parts=3", "")
	w.send(drain, "drain: a pair the strategy refuses is still the client's error", http.MethodGet, "/v1/assignment/wire-drain/Grid?parts=10", "")
	w.send(drain, "drain: a warm key still answers", http.MethodGet, built+"&vertex=7", "")
	w.send(drain, "drain: healthz still answers", http.MethodGet, "/v1/healthz", "")
	close(drainGate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	w.record("drain: the held build's waiter", http.MethodGet, held, "", <-waiter)
	w.send(drain, "drain: the drained build answers warm", http.MethodGet, held+"&vertex=3", "")

	path := filepath.Join("testdata", "wire_golden.txt")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, w.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got := w.out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
	}
}
