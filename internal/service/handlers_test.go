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
	"runtime"
	"strings"
	"testing"
	"time"

	"graphpart/internal/report"
)

// newTestServer builds a Server whose builds drain at test end.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// do runs one request through the handler stack without a network.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// wantError asserts the error JSON envelope: correct status code in the
// body, application/json content type, non-empty message.
func wantError(t *testing.T, rec *httptest.ResponseRecorder, status int) apiError {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, status, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v (%s)", err, rec.Body)
	}
	if e.Status != status {
		t.Fatalf("body status = %d, want %d", e.Status, status)
	}
	if e.Error == "" {
		t.Fatal("error envelope has empty message")
	}
	return e
}

func decodeBodyJSON(t *testing.T, rec *httptest.ResponseRecorder, dst any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("decode response: %v (%s)", err, rec.Body)
	}
}

// fitReportJSON is a minimal benchrunner report the advisor can fit: one
// measurement group on road-ca with two strategies.
func fitReportJSON() string {
	rep := report.Report{
		SchemaVersion: report.SchemaVersion,
		Tool:          "handlers_test",
		Experiments: []report.Experiment{{
			ID: "fit.test", Title: "fit fixture",
			Cells: []report.Cell{
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "Random", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 12, Unit: "s"},
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "Grid", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 9, Unit: "s"},
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "HDRF", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 10, Unit: "s"},
			},
		}},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// wantBodyContains is a row check: the reply carries the given message.
func wantBodyContains(msg string) func(*testing.T, *httptest.ResponseRecorder) {
	return func(t *testing.T, rec *httptest.ResponseRecorder) {
		if !strings.Contains(rec.Body.String(), msg) {
			t.Fatalf("the reply does not say %q: %s", msg, rec.Body)
		}
	}
}

// endpointRow is one request of the endpoint table and what it must answer.
type endpointRow struct {
	name         string
	method, path string
	body         string
	status       int
	maxAlloc     uint64 // when set, bytes the request may allocate in total
	check        func(t *testing.T, rec *httptest.ResponseRecorder)
}

// endpointRows is the endpoint table, for a server with DefaultParts 4.
// The rows are sequenced: later ones depend on state earlier ones create
// (a churn stream, a fitted model), which is itself part of the API
// surface under test. TestWireGolden replays the same rows.
func endpointRows() []endpointRow {
	fitBody := fitReportJSON()
	return []endpointRow{
		{name: "healthz ok", method: http.MethodGet, path: "/v1/healthz", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got struct {
					Status   string `json:"status"`
					Datasets int    `json:"datasets"`
				}
				decodeBodyJSON(t, rec, &got)
				if got.Status != "ok" || got.Datasets < 6 {
					t.Fatalf("healthz = %+v", got)
				}
			}},
		{name: "healthz method not allowed", method: http.MethodPost, path: "/v1/healthz", status: http.StatusMethodNotAllowed,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
					t.Fatalf("Allow = %q, want GET", allow)
				}
			}},
		{name: "datasets list", method: http.MethodGet, path: "/v1/datasets", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got struct {
					Datasets []datasetInfo `json:"datasets"`
				}
				decodeBodyJSON(t, rec, &got)
				names := map[string]bool{}
				for _, d := range got.Datasets {
					names[d.Name] = true
				}
				if !names["road-ca"] || !names["uk-web"] {
					t.Fatalf("dataset list missing builtins: %v", got.Datasets)
				}
			}},
		{name: "manifest ok", method: http.MethodGet, path: "/v1/datasets/road-ca", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got struct {
					Name  string `json:"name"`
					Edges int64  `json:"edges"`
				}
				decodeBodyJSON(t, rec, &got)
				if got.Name != "road-ca" || got.Edges == 0 {
					t.Fatalf("manifest = %+v", got)
				}
			}},
		{name: "manifest unknown dataset", method: http.MethodGet, path: "/v1/datasets/no-such-graph", status: http.StatusNotFound},
		{name: "assignment ok", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=4", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got assignmentResponse
				decodeBodyJSON(t, rec, &got)
				if got.Edges == 0 || got.Vertices == 0 || got.ReplicationFactor < 1 {
					t.Fatalf("assignment = %+v", got)
				}
			}},
		{name: "assignment vertex lookup", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=4&vertex=7", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got assignmentResponse
				decodeBodyJSON(t, rec, &got)
				if got.Vertex == nil || got.Vertex.ID != 7 || got.Vertex.Replicas < 1 {
					t.Fatalf("vertex lookup = %+v", got.Vertex)
				}
				if got.Vertex.Master < 0 || got.Vertex.Master >= 4 {
					t.Fatalf("master %d out of range", got.Vertex.Master)
				}
			}},
		{name: "assignment unknown dataset", method: http.MethodGet, path: "/v1/assignment/no-such-graph/Grid", status: http.StatusNotFound},
		{name: "assignment unknown strategy", method: http.MethodGet, path: "/v1/assignment/road-ca/NoSuchCut", status: http.StatusNotFound},
		{name: "assignment bad parts", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=0", status: http.StatusBadRequest},
		{name: "assignment non-numeric parts", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=many", status: http.StatusBadRequest},
		{name: "assignment absurd parts", method: http.MethodGet, path: fmt.Sprintf("/v1/assignment/road-ca/Grid?parts=%d", maxParts+1), status: http.StatusBadRequest},
		// A (strategy, parts) pair the strategy itself refuses is the client's
		// mistake, not the server's: these answered 500 after loading the
		// dataset.
		{name: "assignment grid non-square", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=10", status: http.StatusBadRequest,
			check: wantBodyContains("numParts=10 is not a perfect square")},
		{name: "assignment pds bad count", method: http.MethodGet, path: "/v1/assignment/road-ca/PDS?parts=10", status: http.StatusBadRequest,
			check: wantBodyContains("no perfect difference set modulo 10")},
		{name: "assignment bad vertex", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=4&vertex=x", status: http.StatusBadRequest},
		{name: "assignment vertex out of range", method: http.MethodGet, path: "/v1/assignment/road-ca/Grid?parts=4&vertex=4000000000", status: http.StatusNotFound},
		{name: "assignment method not allowed", method: http.MethodDelete, path: "/v1/assignment/road-ca/Grid", status: http.StatusMethodNotAllowed},
		{name: "churn first batch", method: http.MethodPost, path: "/v1/churn",
			body:   `{"stream":"t1","strategy":"2D","parts":4,"adds":[[0,1],[1,2],[2,3]]}`,
			status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got churnResponse
				decodeBodyJSON(t, rec, &got)
				if got.Added != 3 || got.LiveEdges != 3 {
					t.Fatalf("churn = %+v", got)
				}
			}},
		{name: "churn delete live edge", method: http.MethodPost, path: "/v1/churn",
			body:   `{"stream":"t1","strategy":"2D","parts":4,"dels":[[0,1]]}`,
			status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got churnResponse
				decodeBodyJSON(t, rec, &got)
				if got.Deleted != 1 || got.LiveEdges != 2 {
					t.Fatalf("churn = %+v", got)
				}
			}},
		{name: "churn delete non-live edge conflicts", method: http.MethodPost, path: "/v1/churn",
			body:   `{"stream":"t1","strategy":"2D","parts":4,"dels":[[7,8]]}`,
			status: http.StatusConflict},
		{name: "churn state readback", method: http.MethodGet, path: "/v1/churn?stream=t1&strategy=2D&parts=4", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got churnResponse
				decodeBodyJSON(t, rec, &got)
				if got.LiveEdges != 2 {
					t.Fatalf("live edges = %d, want 2", got.LiveEdges)
				}
			}},
		{name: "churn unknown stream", method: http.MethodGet, path: "/v1/churn?stream=nope&strategy=2D&parts=4", status: http.StatusNotFound},
		{name: "churn unknown strategy", method: http.MethodPost, path: "/v1/churn",
			body: `{"stream":"t2","strategy":"NoSuchCut","adds":[[0,1]]}`, status: http.StatusNotFound},
		{name: "churn grid non-square", method: http.MethodPost, path: "/v1/churn",
			body: `{"stream":"t2","strategy":"Grid","parts":10,"adds":[[0,1]]}`, status: http.StatusBadRequest,
			check: wantBodyContains("numParts=10 is not a perfect square")},
		// 62 bytes that used to buy 68 M reference counts: the stream must be
		// refused before any state exists (the parent answered 200 and kept
		// ~477 MiB).
		{name: "churn absurd vertex id", method: http.MethodPost, path: "/v1/churn",
			body:   `{"stream":"s","strategy":"2D","parts":17,"adds":[[4000000,1]]}`,
			status: http.StatusBadRequest, maxAlloc: 8 << 20,
			check: wantBodyContains("vertex id 4000000")},
		{name: "churn absurd vertex id made no stream", method: http.MethodGet, path: "/v1/churn?stream=s&strategy=2D&parts=17", status: http.StatusNotFound},
		{name: "churn malformed json", method: http.MethodPost, path: "/v1/churn", body: `{"adds":`, status: http.StatusBadRequest},
		{name: "advise before fit conflicts", method: http.MethodGet, path: "/v1/advise?dataset=road-ca", status: http.StatusConflict},
		{name: "advisor fit malformed", method: http.MethodPost, path: "/v1/advisor/fit", body: `{"schemaVersion":99}`, status: http.StatusBadRequest},
		{name: "advisor fit ok", method: http.MethodPost, path: "/v1/advisor/fit", body: fitBody, status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got fitResponse
				decodeBodyJSON(t, rec, &got)
				if len(got.Engines) == 0 || got.Observations == 0 {
					t.Fatalf("fit = %+v", got)
				}
			}},
		{name: "advise ok", method: http.MethodGet,
			path:   "/v1/advise?dataset=road-ca&system=PowerGraph&machines=16&ratio=4&app=PageRank",
			status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got struct {
					System   string `json:"system"`
					Strategy string `json:"strategy"`
				}
				decodeBodyJSON(t, rec, &got)
				if got.System != "PowerGraph" || got.Strategy == "" {
					t.Fatalf("advise = %+v", got)
				}
			}},
		{name: "advise missing dataset", method: http.MethodGet, path: "/v1/advise", status: http.StatusBadRequest},
		{name: "advise unknown dataset", method: http.MethodGet, path: "/v1/advise?dataset=no-such-graph", status: http.StatusNotFound},
		{name: "advise bad ratio", method: http.MethodGet, path: "/v1/advise?dataset=road-ca&ratio=tall", status: http.StatusBadRequest},
		// 70 bytes that used to pin a core for good: the square test behind the
		// Grid feature counted up to √machines and wrapped at MaxInt64.
		{name: "advise absurd machines", method: http.MethodGet, path: "/v1/advise?dataset=road-ca&machines=9223372036854775807", status: http.StatusBadRequest},
		{name: "advise zero machines", method: http.MethodGet, path: "/v1/advise?dataset=road-ca&machines=0", status: http.StatusBadRequest},
		{name: "advise negative machines", method: http.MethodGet, path: "/v1/advise?dataset=road-ca&machines=-4", status: http.StatusBadRequest},
		{name: "advisor fit method not allowed", method: http.MethodGet, path: "/v1/advisor/fit", status: http.StatusMethodNotAllowed},
		{name: "metrics ok", method: http.MethodGet, path: "/v1/metrics", status: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var got struct {
					Cells []report.Cell `json:"cells"`
				}
				decodeBodyJSON(t, rec, &got)
				if len(got.Cells) == 0 {
					t.Fatal("metrics returned no cells")
				}
				byKey := map[string]float64{}
				for _, c := range got.Cells {
					byKey[c.Dims.Variant+"/"+c.Metric] = c.Value
				}
				if byKey["healthz/requests"] < 1 {
					t.Fatalf("healthz requests cell = %v", byKey["healthz/requests"])
				}
				if byKey["churn/client-errors"] < 1 {
					t.Fatalf("churn 4xx traffic not counted: %v", byKey)
				}
			}},
	}
}

func TestEndpointTable(t *testing.T) {
	srv := newTestServer(t, Config{DefaultParts: 4})
	for _, tc := range endpointRows() {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			if tc.maxAlloc > 0 {
				runtime.ReadMemStats(&before)
			}
			rec := do(srv, tc.method, tc.path, tc.body)
			if tc.maxAlloc > 0 {
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > tc.maxAlloc {
					t.Errorf("the request allocated %d bytes, limit %d", got, tc.maxAlloc)
				}
			}
			if tc.status >= 400 {
				wantError(t, rec, tc.status)
			} else if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if tc.check != nil {
				tc.check(t, rec)
			}
		})
	}
}

// TestRefusedPartsAreTheClientsFault: a partition count the strategy itself
// rejects is answered 400 on every endpoint that can build the pair — before
// the dataset loads, without a stream coming to exist, and counted under
// client-errors, not server-errors.
func TestRefusedPartsAreTheClientsFault(t *testing.T) {
	gate, builds := registerGatedDataset(t, "svc-refused-parts")
	close(gate) // a regression would build the dataset, not hang on it
	srv := newTestServer(t, Config{})
	for _, x := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/assignment/svc-refused-parts/Grid?parts=10", ""},
		{http.MethodGet, "/v1/assignment/svc-refused-parts/PDS?parts=10", ""},
		{http.MethodPost, "/v1/churn", `{"stream":"refused","strategy":"Grid","parts":10,"adds":[[0,1]]}`},
	} {
		wantError(t, do(srv, x.method, x.path, x.body), http.StatusBadRequest)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("the refused requests built the dataset %d times", n)
	}
	wantError(t, do(srv, http.MethodGet, "/v1/churn?stream=refused&strategy=Grid&parts=10", ""), http.StatusNotFound)
	for _, c := range srv.MetricsCells() {
		if c.Metric == "server-errors" && c.Value != 0 {
			t.Errorf("%s counts %v server errors after client mistakes", c.Dims.Variant, c.Value)
		}
	}
}

// TestOversizedBodies pins the 413 path on every body-accepting endpoint,
// for a body whose first value ends inside the cap too.
func TestOversizedBodies(t *testing.T) {
	srv := newTestServer(t, Config{MaxBody: 64})
	big := `{"dataset":"road-ca","strategy":"Grid","padding":"` + strings.Repeat("x", 256) + `"}`
	for _, path := range []string{"/v1/churn", "/v1/advisor/fit"} {
		rec := do(srv, http.MethodPost, path, big)
		wantError(t, rec, http.StatusRequestEntityTooLarge)
	}
	for _, x := range insideTheCap {
		wantError(t, do(srv, http.MethodPost, x.path, strings.Repeat(x.first, 5)), http.StatusRequestEntityTooLarge)
	}
}

// TestRequestTimeout pins the 504 path: a request whose handler work
// outlives the per-request deadline gets a gateway-timeout envelope.
func TestRequestTimeout(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := do(srv, http.MethodGet, "/v1/datasets/uk-web", "")
	wantError(t, rec, http.StatusGatewayTimeout)
}

// TestAdviseRatioRange: a ratio that parses as a float but means nothing —
// not a number, infinite or negative — is refused 400 naming the
// parameter, where it used to flow into the advisor and answer 200.
func TestAdviseRatioRange(t *testing.T) {
	srv := newTestServer(t, Config{})
	if rec := do(srv, http.MethodPost, "/v1/advisor/fit", fitReportJSON()); rec.Code != http.StatusOK {
		t.Fatalf("fit status = %d (%s)", rec.Code, rec.Body)
	}
	for _, ratio := range []string{"NaN", "Inf", "-Inf", "%2BInf", "-1", "-0.5", "1e309"} {
		rec := do(srv, http.MethodGet, "/v1/advise?dataset=road-ca&ratio="+ratio, "")
		if e := wantError(t, rec, http.StatusBadRequest); !strings.Contains(e.Error, "query param ratio=") {
			t.Errorf("ratio=%s: the error does not name the parameter: %q", ratio, e.Error)
		}
	}
	for _, ratio := range []string{"0", "0.5", "4", "1e6"} {
		if rec := do(srv, http.MethodGet, "/v1/advise?dataset=road-ca&ratio="+ratio, ""); rec.Code != http.StatusOK {
			t.Errorf("ratio=%s: status = %d (%s)", ratio, rec.Code, rec.Body)
		}
	}
}

// TestRespondUnencodableIs500: a reply json cannot encode answers 500 in
// the error envelope naming the encode error, not its own status with an
// empty body.
func TestRespondUnencodableIs500(t *testing.T) {
	for _, v := range []any{
		struct{ RF float64 }{math.NaN()},
		map[string]float64{"rf": math.Inf(1)},
	} {
		rec := httptest.NewRecorder()
		if status := respond(rec, v, nil); status != http.StatusInternalServerError {
			t.Errorf("respond(%v) returned %d, want 500", v, status)
		}
		if e := wantError(t, rec, http.StatusInternalServerError); !strings.Contains(e.Error, "unsupported value") {
			t.Errorf("the envelope does not name the encode error: %q", e.Error)
		}
	}
}

// FuzzIndentJSON: indentJSON of any value json.Marshal writes is byte for
// byte what json.Indent makes of it. A fuzz input that is valid JSON is
// marshalled as a json.RawMessage (compacted, HTML-escaped, every escape
// kept as written) and, decoded into an any, re-marshalled.
func FuzzIndentJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_golden.txt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, sec := range strings.Split(string(golden), "\n## ") {
		for _, line := range strings.Split(sec, "\n") {
			if body, ok := strings.CutPrefix(line, "> "); ok && json.Valid([]byte(body)) {
				f.Add(body) // every request body the golden pins
			}
		}
		if _, body, ok := strings.Cut(sec, "\n< Allow:"); ok {
			if _, body, ok = strings.Cut(body, "\n"); ok && json.Valid([]byte(body)) {
				f.Add(body) // and every reply, compacted below
			}
		}
	}
	deep := strings.Repeat(`{"k":[`, 20) + "1" + strings.Repeat("]}", 20)
	for _, seed := range []string{
		`"a\\"`, `"a\""`, `"a\\\""`, `{"a\\":"\\\\","b\"":["\\\""]}`,
		`"<a & b>"`, `{"<":"< "}`,
		`{}`, `[]`, `[{}]`, `{"a":[]}`, `[[],{},[[{}]]]`, `{"a":{"b":{"c":[]}}}`,
		deep, strings.Repeat("[", 40) + strings.Repeat("]", 40),
		`[1,-0.5e+10,true,false,null,"x"]`, `0`, `""`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !json.Valid([]byte(s)) {
			return
		}
		vs := []any{json.RawMessage(s)}
		var decoded any
		if json.Unmarshal([]byte(s), &decoded) == nil { // a number past float64 does not decode
			vs = append(vs, decoded)
		}
		for _, v := range vs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Indent(&want, b, "", "  "); err != nil {
				t.Fatal(err)
			}
			if got := indentJSON(nil, b); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("indentJSON(%s):\n got %s\nwant %s", b, got, want.Bytes())
			}
		}
	})
}
