package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphpart/internal/advisor"
	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// ErrNoModel answers advisor queries before any report has been fitted.
var ErrNoModel = errors.New("service: no advisor model fitted; POST a benchrunner report to /v1/advisor/fit")

// handler is one endpoint's work: it returns the value to answer with or
// the error to answer instead, and never touches the ResponseWriter. The
// only waits it makes are on cache builds, each bounded by r's context and
// by deadline, the request's arrival plus RequestTimeout.
type handler func(r *http.Request, deadline time.Time) (any, error)

// statusError is a failure that is the request's own and knows its status.
type statusError struct {
	status int
	msg    string
}

func (e statusError) Error() string { return e.msg }

func statusErrorf(status int, format string, args ...any) error {
	return statusError{status, fmt.Sprintf(format, args...)}
}

// statusOf is the one error→status mapping: a statusError says its own,
// the named errors have theirs, a wait that ended at the request deadline
// is 504 and anything else is the server's fault.
func statusOf(err error) int {
	var se statusError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, ErrNoModel):
		return http.StatusConflict
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// replyBufs recycles the indented reply bodies. A buffer grown past
// maxPooledReply is left to the collector, so one large reply does not
// pin its size in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// jsonContentType is every reply's Content-Type value. respond puts this
// one slice into each reply's header map, where Header().Set would
// allocate a new one per reply; it is shared, so nothing may write to it.
var jsonContentType = []string{"application/json"}

// respond writes a request's one reply — v, or err in the error envelope —
// and returns the status it carried. v is encoded before anything is
// written, so a value that cannot be encoded answers 500 with the envelope
// instead of its status with an empty body. A value that carries its wire
// bytes (preEncoded) is written as it is, and so is a *[]byte: a reply the
// handler already wrote into a replyBufs buffer, which a pointer carries in
// v without a heap copy, and which respond recycles like its own.
func respond(w http.ResponseWriter, v any, err error) int {
	status := http.StatusOK
	if err != nil {
		status = statusOf(err)
		v = apiError{Error: err.Error(), Status: status}
	}
	bp, written := v.(*[]byte)
	if !written {
		bp = replyBufs.Get().(*[]byte)
	}
	body := *bp
	switch p := v.(type) {
	case *[]byte: // written by the handler
	case preEncoded:
		body = p.appendTo(body[:0])
	default:
		if body, err = encodeReply(body[:0], v); err != nil {
			status = http.StatusInternalServerError
			body, _ = encodeReply((*bp)[:0], apiError{Error: err.Error(), Status: status}) // two plain fields always encode
		}
	}
	body = append(body, '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // the status is committed; a failed write is a gone client
	if cap(body) <= maxPooledReply {
		*bp = body
		replyBufs.Put(bp)
	}
	return status
}

// encodeReply is respond's one encode step: v as json.Marshal writes it,
// indented by indentJSON, appended to dst. A value json cannot encode is
// the server's error.
func encodeReply(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("service: encode reply: %w", err)
	}
	return indentJSON(dst, b), nil
}

// preEncoded is a reply value that appends its own wire bytes: byte for
// byte what encodeReply writes for the value it stands for.
type preEncoded interface{ appendTo(dst []byte) []byte }

// encoded is a reply encodeReply has already written.
type encoded []byte

func (e encoded) appendTo(dst []byte) []byte { return append(dst, e...) }

// newlineIndent is a newline and the indentation of the first 16 levels;
// deeper levels append the rest in runs of it.
const newlineIndent = "\n                                "

// appendNewline appends a newline and depth two-space indents.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; {
		k := min(n, len(newlineIndent)-1)
		dst = append(dst, newlineIndent[1:1+k]...)
		n -= k
	}
	return dst
}

// indentJSON appends src, compact JSON as json.Marshal writes it, to dst
// indented byte for byte as encoding/json's Indent with prefix "" and
// indent "  " would (FuzzIndentJSON holds it to that), in one pass: a
// string, number or literal is copied whole, and only the punctuation
// between them is looked at byte by byte.
func indentJSON(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); {
		switch c := src[i]; c {
		case '"':
			// The closing quote is the first one after an even run of
			// backslashes; json.Marshal escapes every other special byte.
			j := i + 1
			for {
				n := bytes.IndexByte(src[j:], '"')
				if n < 0 { // unterminated: not json.Marshal output
					return append(dst, src[i:]...)
				}
				j += n
				k := j
				for src[k-1] == '\\' {
					k--
				}
				if (j-k)%2 == 0 {
					break
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j + 1
		case '{', '[':
			if i+1 < len(src) && src[i+1] == c+2 { // "{}" or "[]" stays on its line
				dst = append(dst, c, c+2)
				i += 2
				continue
			}
			depth++
			dst = appendNewline(append(dst, c), depth)
			i++
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
			i++
		case ',':
			dst = appendNewline(append(dst, c), depth)
			i++
		case ':':
			dst = append(dst, ':', ' ')
			i++
		default: // a number or literal runs to the next ',', '}' or ']'
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j
		}
	}
	return dst
}

// routes mounts every endpoint.
func (s *Server) routes() {
	s.handle("/v1/healthz", "healthz", s.handleHealthz, http.MethodGet)
	s.handle("/v1/datasets", "datasets", s.handleDatasets, http.MethodGet)
	s.handle("/v1/datasets/{name}", "dataset-manifest", s.handleManifest, http.MethodGet)
	s.handle("/v1/assignment/{dataset}/{strategy}", "assignment", s.handleAssignment, http.MethodGet)
	s.handle("/v1/churn", "churn", s.handleChurn, http.MethodGet, http.MethodPost)
	s.handle("/v1/advisor/fit", "advisor-fit", s.handleAdvisorFit, http.MethodPost)
	s.handle("/v1/advise", "advise", s.handleAdvise, http.MethodGet)
	s.handle("/v1/metrics", "metrics", s.handleMetrics, http.MethodGet)
}

// handle mounts one endpoint behind the request path every endpoint
// shares: the method check (in here, not in the mux pattern, so a 405
// carries the same JSON envelope as every other failure), the per-request
// deadline, the body cap, the op's inflight gauge, request counters and
// latency, and the reply.
func (s *Server) handle(pattern, op string, h handler, methods ...string) {
	e := s.met.register(op)
	allow := strings.Join(methods, ", ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			// Not counted on purpose: a method probe is not endpoint traffic.
			w.Header().Set("Allow", allow)
			respond(w, nil, statusErrorf(http.StatusMethodNotAllowed,
				"service: %s does not allow %s (allow: %s)", r.URL.Path, r.Method, allow))
			return
		}
		// The deadline is fixed here and armed only by a wait on a build.
		start := time.Now()
		if r.ContentLength != 0 { // unknown (-1) or positive: there is a body to cap
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
		}
		e.inflight.Add(1)
		v, err := h(r, start.Add(s.cfg.requestTimeout()))
		status := respond(w, v, err)
		e.inflight.Add(-1)
		e.observe(status, time.Since(start))
	})
}

// bodyError types a failure to read or decode a request body: 413 when it
// ran past MaxBody, otherwise 400 saying what the body should have been.
func bodyError(what string, err error) error {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return statusErrorf(http.StatusRequestEntityTooLarge, "service: request body exceeds %d bytes", tooBig.Limit)
	}
	return statusErrorf(http.StatusBadRequest, "service: %s: %v", what, err)
}

// maxBodyHint bounds the bytes a declared Content-Length reserves before
// they arrive; a longer body grows the buffer as it is read.
const maxBodyHint = 64 << 10

// readBody reads the whole request body, which handle capped at MaxBody:
// a body that runs past the cap is 413 even when its first JSON value
// ends inside it. A body no longer than maxBodyHint is read into one
// allocation of its declared length.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxBodyHint)) + bytes.MinRead)
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), bodyError("read request body", err)
}

// decodeJSON decodes the first JSON value of a request body into dst, as
// a json.Decoder does: bytes after that value are not looked at.
func decodeJSON(b []byte, dst any) error {
	return bodyError("malformed JSON body", json.NewDecoder(bytes.NewReader(b)).Decode(dst))
}

// queryValue is url.ParseQuery(raw).Get(key) without the map: segments
// split on '&', one holding a ';' skipped, one whose key or value fails to
// unescape skipped, and the first match winning (FuzzQueryValue holds the
// two equal). url.QueryUnescape returns a string holding no '%' or '+'
// as it is, so a plain query allocates nothing.
func queryValue(raw, key string) string {
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" || strings.IndexByte(seg, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryInt parses an integer query parameter's value, def when it is empty.
func queryInt(name, v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, statusErrorf(http.StatusBadRequest, "service: query param %s=%q is not an integer", name, v)
	}
	return n, nil
}

// bodyParts spells a JSON body's parts field the way a query does: the
// field's zero value is a request that names none.
func bodyParts(n int) string {
	if n == 0 {
		return ""
	}
	return strconv.Itoa(n)
}

// knownDataset 404s unknown dataset names.
func knownDataset(name string) error {
	if _, err := datasets.Describe(name); err != nil {
		return statusError{http.StatusNotFound, err.Error()}
	}
	return nil
}

// --- health + datasets --------------------------------------------------

func (s *Server) handleHealthz(*http.Request, time.Time) (any, error) {
	return map[string]any{
		"status":   "ok",
		"datasets": len(datasets.Names()),
		"scale":    s.cfg.scale(),
	}, nil
}

// datasetInfo is one row of GET /v1/datasets.
type datasetInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Class      string `json:"class"`
	Provenance string `json:"provenance,omitempty"`
}

func (s *Server) handleDatasets(*http.Request, time.Time) (any, error) {
	names := datasets.Names()
	out := make([]datasetInfo, 0, len(names))
	for _, n := range names {
		info, err := datasets.Describe(n)
		if err != nil {
			continue // unregistered between Names and Describe; skip
		}
		out = append(out, datasetInfo{
			Name: info.Name, Kind: string(info.Kind),
			Class: info.Class.String(), Provenance: info.Provenance,
		})
	}
	return map[string]any{"datasets": out}, nil
}

func (s *Server) handleManifest(r *http.Request, deadline time.Time) (any, error) {
	name := r.PathValue("name")
	if err := knownDataset(name); err != nil {
		return nil, err
	}
	m, err := s.manifest(r.Context(), deadline, name)
	if err != nil {
		return nil, err
	}
	return m.reply, m.err
}

// --- assignment ---------------------------------------------------------

// vertexLookup is the per-vertex part of an assignment response.
type vertexLookup struct {
	ID       uint32 `json:"id"`
	Master   int    `json:"master"`
	Replicas int    `json:"replicas"`
}

// assignmentResponse summarizes a cached partitioning, with an optional
// vertex lookup. The summary is encoded once, by the build (Server.build);
// a lookup appends its vertex to those bytes (vertexReply).
type assignmentResponse struct {
	Dataset           string        `json:"dataset"`
	Strategy          string        `json:"strategy"`
	Parts             int           `json:"parts"`
	Edges             int64         `json:"edges"`
	Vertices          int           `json:"vertices"`
	ReplicationFactor float64       `json:"replicationFactor"`
	EdgeBalance       float64       `json:"edgeBalance"`
	Vertex            *vertexLookup `json:"vertex,omitempty"`
}

// vertexReply is a vertex lookup's reply: the cached summary with the
// vertex appended as encodeReply writes an assignmentResponse's Vertex
// (TestAssignmentReplyMatchesEncoder holds the two equal).
type vertexReply struct {
	summary encoded
	vertex  vertexLookup
}

func (r vertexReply) appendTo(dst []byte) []byte {
	dst = append(dst, r.summary[:len(r.summary)-len("\n}")]...)
	dst = append(dst, ",\n  \"vertex\": {\n    \"id\": "...)
	dst = strconv.AppendUint(dst, uint64(r.vertex.ID), 10)
	dst = append(dst, ",\n    \"master\": "...)
	dst = strconv.AppendInt(dst, int64(r.vertex.Master), 10)
	dst = append(dst, ",\n    \"replicas\": "...)
	dst = strconv.AppendInt(dst, int64(r.vertex.Replicas), 10)
	return append(dst, "\n  }\n}"...)
}

func (s *Server) handleAssignment(r *http.Request, deadline time.Time) (any, error) {
	q := r.URL.RawQuery
	k, err := s.key(true, r.PathValue("dataset"), r.PathValue("strategy"), queryValue(q, "parts"))
	if err != nil {
		return nil, err
	}
	c, err := s.assignment(r.Context(), deadline, k)
	if err != nil {
		return nil, err
	}
	vq := queryValue(q, "vertex")
	if vq == "" {
		return c.reply, c.err
	}
	v64, err := strconv.ParseUint(vq, 10, 32)
	if err != nil {
		return nil, statusErrorf(http.StatusBadRequest, "service: query param vertex=%q is not a vertex id", vq)
	}
	a, v := c.v, graph.VertexID(v64)
	if int(v) >= a.G.NumVertices() {
		return nil, statusErrorf(http.StatusNotFound, "service: vertex %d outside %s (%d vertices)", v, k.name, a.G.NumVertices())
	}
	if c.err != nil {
		return nil, c.err
	}
	bp := replyBufs.Get().(*[]byte)
	*bp = vertexReply{c.reply, vertexLookup{ID: v, Master: a.Master(v), Replicas: a.Replicas(v)}}.appendTo((*bp)[:0])
	return bp, nil
}

// --- churn --------------------------------------------------------------

// churnRequest is the POST /v1/churn body as encoding/json decodes it:
// one batch of edge additions and deletions for a named live stream.
// Edges are [src, dst] pairs.
type churnRequest struct {
	Stream   string      `json:"stream"`
	Strategy string      `json:"strategy"`
	Parts    int         `json:"parts"`
	Adds     [][2]uint32 `json:"adds"`
	Dels     [][2]uint32 `json:"dels"`
}

// churnBatch is a churn body with its edges ready for ApplyBatch: what
// parseChurn fills directly, and a decoded churnRequest converts to.
type churnBatch struct {
	Stream   string
	Strategy string
	Parts    int
	Adds     []graph.Edge
	Dels     []graph.Edge
}

func (r churnRequest) batch() churnBatch {
	return churnBatch{Stream: r.Stream, Strategy: r.Strategy, Parts: r.Parts,
		Adds: edgesOf(r.Adds), Dels: edgesOf(r.Dels)}
}

// churnResponse reports the batch outcome and the stream's live quality.
type churnResponse struct {
	Stream            string  `json:"stream"`
	Strategy          string  `json:"strategy"`
	Parts             int     `json:"parts"`
	Added             int     `json:"added"`
	Deleted           int     `json:"deleted"`
	Rebuilt           bool    `json:"rebuilt"`
	LiveEdges         int64   `json:"liveEdges"`
	Vertices          int     `json:"vertices"`
	ReplicationFactor float64 `json:"replicationFactor"`
	EdgeBalance       float64 `json:"edgeBalance"`
	Incremental       bool    `json:"incremental"`
}

// response reads the stream's live quality beside a batch outcome (the
// zero BatchStats for a read). The caller holds ls.mu.
func (ls *liveState) response(k cutKey, stats partition.BatchStats) churnResponse {
	return churnResponse{
		Stream: k.name, Strategy: k.strategy, Parts: k.parts,
		Added: stats.Added, Deleted: stats.Deleted, Rebuilt: stats.Rebuilt,
		LiveEdges: ls.st.NumEdges(), Vertices: ls.st.NumVertices(),
		ReplicationFactor: ls.st.ReplicationFactor(),
		EdgeBalance:       ls.st.EdgeBalance(),
		Incremental:       ls.st.Incremental(),
	}
}

// parseChurn decodes b when it is a churn body in the canonical shape: one
// object whose keys are spelled exactly as churnRequest's tags, stream and
// strategy ASCII strings without escapes, parts a decimal int, adds and
// dels arrays of [src, dst] decimal uint32 pairs, JSON whitespace between
// tokens, and a repeated key's last value winning. Like json.Decoder it
// stops at the closing brace. Anything else — null, a sign, a fraction, an
// exponent, a leading zero, an overflow, another key or spelling — it
// declines with the zero batch, for the caller to decode b with
// encoding/json instead; FuzzChurnDecode holds every body it accepts to
// encoding/json's value.
func parseChurn(b []byte) (churnBatch, bool) {
	var req churnBatch
	s := churnScan{b: b}
	ok := s.next('{')
	for first := true; ok && !s.next('}'); first = false {
		ok = first || s.next(',')
		key, isKey := s.str()
		ok = ok && isKey && s.next(':')
		var v []byte
		var n uint64
		var isVal bool // stays false for any other key
		switch string(key) {
		case "stream":
			v, isVal = s.str()
			req.Stream = string(v)
		case "strategy":
			v, isVal = s.str()
			req.Strategy = string(v)
		case "parts":
			n, isVal = s.uint(math.MaxInt)
			req.Parts = int(n)
		case "adds":
			req.Adds, isVal = s.pairs()
		case "dels":
			req.Dels, isVal = s.pairs()
		}
		ok = ok && isVal
	}
	if !ok {
		return churnBatch{}, false
	}
	return req, true
}

// churnScan is parseChurn's cursor over a body.
type churnScan struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *churnScan) skip() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c, reporting whether it was there.
func (s *churnScan) next(c byte) bool {
	s.skip()
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// str consumes a string of ASCII bytes from 0x20 up, none a backslash,
// and returns what is between the quotes.
func (s *churnScan) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] < 0x80 && s.b[s.i] != '\\' && s.b[s.i] != '"' {
		s.i++
	}
	ok := s.i < len(s.b) && s.b[s.i] == '"'
	s.i++
	return s.b[start : s.i-1], ok
}

// uint consumes a decimal integer of at most max, after whitespace. It
// stops before a digit that would pass max or follows a leading zero, and
// before a sign, fraction or exponent; each fails the caller's next
// punctuation.
func (s *churnScan) uint(max uint64) (uint64, bool) {
	s.skip()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '0' {
		s.i++
		return 0, true
	}
	// n·10 + d passes max = q·10 + r exactly when n > q, or n = q and d > r.
	q, r := max/10, max%10
	var n uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0') // a byte below '0' wraps past 9
		if d > 9 || n > q || n == q && d > r {
			break
		}
		n = n*10 + d
	}
	ok := i > s.i
	s.i = i
	return n, ok
}

// pairs consumes an array of [src, dst] pairs as edges; [] is an empty,
// non-nil slice, as encoding/json makes it. The slice is sized once, from
// the '[' before the next key's quote, and never past the pairs those
// bytes could spell ("[0,0]," is six), so no body buys more than its size.
func (s *churnScan) pairs() ([]graph.Edge, bool) {
	span := s.b[min(s.i, len(s.b)):] // past the end after an unterminated key
	if q := bytes.IndexByte(span, '"'); q >= 0 {
		span = span[:q]
	}
	out := make([]graph.Edge, 0, min(bytes.Count(span, []byte("[")), len(span)/6))
	ok := s.next('[')
	for ok && !s.next(']') {
		ok = (len(out) == 0 || s.next(',')) && s.next('[')
		src, isSrc := s.uint(math.MaxUint32)
		ok = ok && isSrc && s.next(',')
		dst, isDst := s.uint(math.MaxUint32)
		ok = ok && isDst && s.next(']')
		out = append(out, graph.Edge{Src: uint32(src), Dst: uint32(dst)})
	}
	return out, ok
}

// edgesOf converts [src, dst] pairs to edges, nil staying nil.
func edgesOf(pairs [][2]uint32) []graph.Edge {
	if pairs == nil {
		return nil
	}
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{Src: p[0], Dst: p[1]}
	}
	return out
}

// handleChurn applies POST /v1/churn's batch to its live stream, or answers
// GET /v1/churn?stream=&strategy=&parts= with an existing stream's live
// quality summary.
func (s *Server) handleChurn(r *http.Request, _ time.Time) (any, error) {
	if r.Method == http.MethodGet {
		q := r.URL.RawQuery
		k, err := s.key(false, queryValue(q, "stream"), queryValue(q, "strategy"), queryValue(q, "parts"))
		if err != nil {
			return nil, err
		}
		ls, err := s.state(k, false)
		if err != nil {
			return nil, err
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return ls.response(k, partition.BatchStats{}), nil
	}
	// A canonical body skips reflection; any other is encoding/json's.
	b, err := readBody(r)
	req, ok := parseChurn(b)
	if err == nil && !ok {
		var slow churnRequest
		err = decodeJSON(b, &slow)
		req = slow.batch()
	}
	if err != nil {
		return nil, err
	}
	k, err := s.key(false, req.Stream, req.Strategy, bodyParts(req.Parts))
	if err != nil {
		return nil, err
	}
	var maxID uint32
	for _, e := range req.Adds {
		maxID = max(maxID, e.Src, e.Dst)
	}
	if cells := (int64(maxID) + 1) * int64(k.parts); cells > maxStateCells {
		return nil, statusErrorf(http.StatusBadRequest,
			"service: vertex id %d at %d parts needs %d state cells, limit %d", maxID, k.parts, cells, int64(maxStateCells))
	}
	ls, err := s.state(k, true)
	if err != nil {
		return nil, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	stats, err := ls.st.ApplyBatch(req.Adds, req.Dels)
	if err != nil {
		// A delete of a non-live edge aborts the batch mid-way; the state
		// keeps the prefix that applied. 409 tells the client its view of
		// the stream diverged from the server's.
		return nil, statusErrorf(http.StatusConflict, "service: churn batch aborted: %v", err)
	}
	return ls.response(k, stats), nil
}

// --- advisor ------------------------------------------------------------

// fitResponse summarizes a model fitted from an uploaded report.
type fitResponse struct {
	Engines      []string `json:"engines"`
	Observations int      `json:"observations"`
	Skipped      int      `json:"skipped"`
	Manifests    int      `json:"manifests"`
}

func (s *Server) handleAdvisorFit(r *http.Request, deadline time.Time) (any, error) {
	b, err := readBody(r)
	if err != nil {
		return nil, err
	}
	rep, err := report.Decode(bytes.NewReader(b))
	if err != nil {
		return nil, bodyError("report body", err)
	}
	return s.refit(r.Context(), deadline, rep)
}

// Refit fits the advisor model from a benchrunner report and installs it:
// what POST /v1/advisor/fit runs on an uploaded report, for the daemon's
// -report flag to run on one from disk before serving.
func (s *Server) Refit(rep *report.Report) error {
	_, err := s.refit(context.Background(), time.Time{}, rep)
	return err
}

// refit measures the manifests of the registered datasets the report
// covers and swaps in a freshly fitted model. A report the advisor cannot
// fit is 422; when a wait on a manifest ends first (ctx, or the deadline
// unless it is zero) the old model stays, and the manifests measured so far
// are kept for the next attempt.
func (s *Server) refit(ctx context.Context, deadline time.Time, rep *report.Report) (fitResponse, error) {
	seen := map[string]bool{}
	var mans []datasets.Manifest
	for _, e := range rep.Experiments {
		for _, c := range e.Cells {
			name := c.Dims.Dataset
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			if knownDataset(name) != nil {
				continue // unregistered dataset: no manifest, advisor skips it
			}
			m, err := s.manifest(ctx, deadline, name)
			if err != nil {
				return fitResponse{}, err
			}
			mans = append(mans, m.v)
		}
	}
	model, err := advisor.Fit(rep, mans)
	if err != nil {
		return fitResponse{}, statusError{http.StatusUnprocessableEntity, err.Error()}
	}
	s.advMu.Lock()
	s.model = model
	s.advMu.Unlock()
	resp := fitResponse{Engines: model.Engines(), Skipped: model.Skipped, Manifests: len(mans)}
	for _, e := range resp.Engines {
		resp.Observations += len(model.Observations(e))
	}
	return resp, nil
}

func (s *Server) handleAdvise(r *http.Request, deadline time.Time) (any, error) {
	s.advMu.RLock()
	model := s.model
	s.advMu.RUnlock()
	if model == nil {
		return nil, ErrNoModel
	}
	q := r.URL.RawQuery
	ds := queryValue(q, "dataset")
	if ds == "" {
		return nil, statusErrorf(http.StatusBadRequest, "service: advise needs a dataset query param")
	}
	if err := knownDataset(ds); err != nil {
		return nil, err
	}
	sys := partition.System(queryValue(q, "system"))
	if sys == "" {
		sys = partition.PowerGraph
	}
	machines, err := queryInt("machines", queryValue(q, "machines"), s.cfg.defaultParts())
	if err != nil {
		return nil, err
	}
	if machines < 1 || machines > maxParts {
		return nil, statusErrorf(http.StatusBadRequest, "service: machines must be in [1, %d], got %d", maxParts, machines)
	}
	ratio := 4.0 // long-job default: partitions are held resident here
	if rq := queryValue(q, "ratio"); rq != "" {
		if ratio, err = strconv.ParseFloat(rq, 64); err != nil {
			return nil, statusErrorf(http.StatusBadRequest, "service: query param ratio=%q is not a number", rq)
		}
		if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
			return nil, statusErrorf(http.StatusBadRequest, "service: query param ratio=%q must be a finite number >= 0", rq)
		}
	}
	m, err := s.manifest(r.Context(), deadline, ds)
	if err != nil {
		return nil, err
	}
	rec, err := model.Recommend(sys, advisor.WorkloadFor(m.v, machines, ratio, queryValue(q, "app")))
	if err != nil {
		return nil, statusError{http.StatusBadRequest, err.Error()}
	}
	return rec, nil
}

// --- metrics ------------------------------------------------------------

func (s *Server) handleMetrics(*http.Request, time.Time) (any, error) {
	return metricsReply(s.MetricsCells()), nil
}
