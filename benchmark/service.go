package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphpart/internal/datasets"
	"graphpart/internal/graph"
	"graphpart/internal/partition"
	"graphpart/internal/report"
	"graphpart/internal/service"
)

// responseWriter is the in-process http.ResponseWriter of one client,
// reused from request to request so that the harness adds as little
// allocation to the measured traffic as it can.
type responseWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *responseWriter) Header() http.Header { return w.header }
func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *responseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// client is one closed-loop caller: it sends its next request only when
// the previous reply is in.
type client struct {
	script []request
	at     int      // next script position
	sums   []uint64 // checksum of the verified reply per script position, 0 = status only
	rw     responseWriter

	// Totals of the segment in progress.
	status             [3]int64 // 2xx, 4xx, 5xx
	failed             int64
	problems           []string // the first few failures, named
	reqBytes, respByte int64
}

// send dispatches one request straight into the handler stack, as
// svc.qps does: what is measured is the service, not the kernel's
// sockets.
func (cl *client) send(h http.Handler, rq *request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	clear(cl.rw.header)
	cl.rw.status = 0
	cl.rw.body.Reset()
	h.ServeHTTP(&cl.rw, req)
	return cl.rw.status, cl.rw.body.Bytes(), nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash.Hash never fails
	return h.Sum64() | 1
}

// run sends the next n requests of the script. A reply fails when its
// status is not 200 or, for a reply verified during set-up, when its
// bytes differ from the verified ones.
func (cl *client) run(h http.Handler, n int, tr *tracer) {
	cl.status, cl.failed, cl.problems, cl.reqBytes, cl.respByte = [3]int64{}, 0, nil, 0, 0
	fail := func(rq *request, format string, args ...any) {
		if cl.failed++; len(cl.problems) < 5 {
			cl.problems = append(cl.problems, rq.method+" "+rq.path+": "+fmt.Sprintf(format, args...))
		}
	}
	for i := 0; i < n; i++ {
		rq := &cl.script[cl.at]
		var id int32
		if tr != nil {
			id = tr.begin(rq.op, "")
		}
		status, body, err := cl.send(h, rq)
		if tr != nil {
			tr.end(id)
		}
		switch {
		case err != nil:
			fail(rq, "%v", err)
		case status != http.StatusOK:
			fail(rq, "status %d: %s", status, bytes.TrimSpace(body))
		case cl.sums != nil && cl.sums[cl.at] != 0 && cl.sums[cl.at] != checksum(body):
			fail(rq, "reply differs from the verified one")
		}
		switch {
		case status >= 500:
			cl.status[2]++
		case status >= 400:
			cl.status[1]++
		case status >= 200 && status < 300:
			cl.status[0]++
		}
		cl.reqBytes += int64(len(rq.body))
		cl.respByte += int64(len(body))
		if cl.at++; cl.at == len(cl.script) {
			cl.at = 0
		}
	}
}

// svc is a workload of closed-loop traffic from W clients against one
// warm in-process service.Server. A pass is a segment: a fixed number of
// requests per client.
type svc struct {
	name  string
	churn bool

	cfg        *config
	srv        *service.Server
	h          http.Handler
	clients    []*client
	plans      []churnPlan // churn only
	perSegment int         // requests per client per segment
	perItems   int64       // items per segment, all clients
	segments   int         // segments run since set-up, for the replay

	// Set-up timings for the per-layer table.
	datasetLoadS, manifestS, coldBuildS float64
	replayed                            *replayResult
}

func (s *svc) items() int64  { return s.perItems }
func (s *svc) rest()         {} // a server is measured warm, in steady state
func (s *svc) products() any { return s.srv }

func (s *svc) tearDown() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx) //nolint:errcheck // no job was ever submitted
		cancel()
	}
	s.srv, s.h, s.clients, s.plans, s.replayed = nil, nil, nil, nil, nil
}

func (s *svc) setUp(c *config) error {
	s.cfg, s.segments = c, 0
	dir, err := os.MkdirTemp(c.dir, s.name+"-*")
	if err != nil {
		return err
	}
	src := genSocial(c.seed, c.sz)
	s.srv = service.New(service.Config{Seed: c.seed, Workers: c.workers, DefaultParts: partsGAS})
	s.h = s.srv.Handler()
	if s.churn {
		return s.setUpChurn(c, src)
	}
	return s.setUpLookup(c, dir, src)
}

// datasetSeq numbers the file datasets this process has registered: the
// datasets registry is process-wide and takes a name once, and one process
// sets up many times (three per run, two sets under -selfcheck, every test).
// The names have one length, so that request and reply sizes do not vary.
var datasetSeq atomic.Int64

// setUpLookup registers the generated graph as a file dataset, warms the
// advisor and the three assignments, and verifies every scripted reply
// against values computed here, independently of the server.
func (s *svc) setUpLookup(c *config, dir string, src *graph.Graph) error {
	path, err := socialV1.save(src, dir)
	if err != nil {
		return err
	}
	dataset := fmt.Sprintf("bench-social-%03d", datasetSeq.Add(1))
	if err := datasets.RegisterFile(dataset, path, graph.HeavyTailed); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := datasets.Load(dataset, 1); err != nil {
		return err
	}
	s.datasetLoadS = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := datasets.BuildManifest(dataset, 1); err != nil {
		return err
	}
	s.manifestS = time.Since(t0).Seconds()

	boot := &client{rw: responseWriter{header: http.Header{}}}
	fit, err := json.Marshal(report.Report{
		SchemaVersion: report.SchemaVersion, Tool: "benchmark",
		Experiments: []report.Experiment{{ID: "bench.fit", Title: "advisor warm-up", Cells: []report.Cell{
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: dataset, Strategy: "Random", App: "PageRank", Parts: partsGAS}, Metric: "total-s", Value: 12, Unit: "s"},
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: dataset, Strategy: "Grid", App: "PageRank", Parts: partsGAS}, Metric: "total-s", Value: 9, Unit: "s"},
			{Dims: report.Dims{Engine: "PowerGraph", Dataset: dataset, Strategy: "HDRF", App: "PageRank", Parts: partsGAS}, Metric: "total-s", Value: 10, Unit: "s"},
		}}},
	})
	if err != nil {
		return err
	}
	if status, body, err := boot.send(s.h, &request{method: "POST", path: "/v1/advisor/fit", body: fit}); err != nil || status != http.StatusOK {
		return fmt.Errorf("advisor fit: status %d: %s (%v)", status, body, err)
	}

	// Cold builds, and the independent placements the replies must match.
	want := map[string]*partition.Assignment{}
	t0 = time.Now()
	for _, name := range lookupStrategies {
		rq := request{method: "GET", path: fmt.Sprintf("/v1/assignment/%s/%s?parts=%d", dataset, name, partsGAS)}
		if status, body, err := boot.send(s.h, &rq); err != nil || status != http.StatusOK {
			return fmt.Errorf("cold build of %s: status %d: %s (%v)", name, status, body, err)
		}
	}
	s.coldBuildS = time.Since(t0).Seconds()
	for _, name := range lookupStrategies {
		a, err := partition.Partition(src, partition.MustNew(name, partition.Options{}), partsGAS, c.seed)
		if err != nil {
			return err
		}
		if _, problems := checkQuality(name, a, nil); problems != nil {
			return fmt.Errorf("reference assignment: %s", problems[0])
		}
		want[name] = a
	}

	s.perSegment = c.sz.lookupSegment
	s.perItems = int64(c.workers * s.perSegment)
	s.clients = make([]*client, c.workers)
	for i := range s.clients {
		cl := &client{rw: responseWriter{header: http.Header{}}}
		cl.script = lookupScript(c.seed, i, dataset, src.NumVertices(), s.perSegment)
		cl.sums = make([]uint64, len(cl.script))
		for at := range cl.script {
			rq := &cl.script[at]
			status, body, err := cl.send(s.h, rq)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%s: status %d: %s (%v)", rq.path, status, body, err)
			}
			if err := checkReply(rq, body, src, want); err != nil {
				return fmt.Errorf("%s: %w", rq.path, err)
			}
			if rq.op != "service.metrics" { // its counters move with every request
				cl.sums[at] = checksum(body)
			}
		}
		if c.sabotage {
			cl.sums[0] ^= 2
		}
		s.clients[i] = cl
	}
	return nil
}

// checkReply decodes one reply and compares it with what the benchmark
// computed itself.
func checkReply(rq *request, body []byte, src *graph.Graph, want map[string]*partition.Assignment) error {
	switch rq.op {
	case "service.lookup":
		var got struct {
			Strategy          string
			Edges             int64
			Vertices          int
			ReplicationFactor float64
			Vertex            *struct {
				ID       uint32
				Master   int
				Replicas int
			}
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		a := want[got.Strategy]
		if a == nil || got.Vertex == nil {
			return fmt.Errorf("reply names strategy %q and vertex %v", got.Strategy, got.Vertex)
		}
		v := got.Vertex.ID
		if !strings.HasSuffix(rq.path, "vertex="+strconv.FormatUint(uint64(v), 10)) ||
			got.Vertex.Master != a.Master(v) || got.Vertex.Replicas != a.Replicas(v) ||
			got.Edges != int64(src.NumEdges()) || got.Vertices != src.NumVertices() ||
			relDiff(got.ReplicationFactor, a.ReplicationFactor()) > 1e-12 {
			return fmt.Errorf("vertex %d: got master %d replicas %d RF %v, want master %d replicas %d RF %v",
				v, got.Vertex.Master, got.Vertex.Replicas, got.ReplicationFactor, a.Master(v), a.Replicas(v), a.ReplicationFactor())
		}
	case "service.manifest":
		var got datasets.Manifest
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Edges != src.NumEdges() || got.Vertices != src.NumVertices() {
			return fmt.Errorf("manifest reports %d vertices, %d edges; generated %d, %d", got.Vertices, got.Edges, src.NumVertices(), src.NumEdges())
		}
	default:
		if !json.Valid(body) {
			return fmt.Errorf("reply is not JSON")
		}
	}
	return nil
}

const preloadChunk = 10_000 // edges per pre-load request, well under MaxBody

// setUpChurn gives every client a live stream of its own and pre-loads
// it through POST /v1/churn.
func (s *svc) setUpChurn(c *config, src *graph.Graph) error {
	s.perSegment = c.sz.churnCycles * (len(churnBatches) + 1)
	s.perItems = int64(c.workers * c.sz.churnCycles * 2 * churnCycleEdges)
	s.clients = make([]*client, c.workers)
	s.plans = make([]churnPlan, c.workers)
	for i := range s.clients {
		plan, err := newChurnPlan(src.Edges, i, c.workers, c.sz.churnPreload)
		if err != nil {
			return err
		}
		cl := &client{rw: responseWriter{header: http.Header{}}, script: plan.script}
		for at := 0; at < len(plan.preload); at += preloadChunk {
			adds := plan.preload[at:min(at+preloadChunk, len(plan.preload))]
			rq := request{method: "POST", path: "/v1/churn", body: churnBody(plan.stream, plan.strategy, adds, nil)}
			if status, body, err := cl.send(s.h, &rq); err != nil || status != http.StatusOK {
				return fmt.Errorf("pre-load of %s: status %d: %s (%v)", plan.stream, status, body, err)
			}
		}
		s.clients[i], s.plans[i] = cl, plan
	}
	return nil
}

// adopt moves a client's spans under the tracer's open span.
func (t *tracer) adopt(child *tracer) {
	base, parent := int32(len(t.spans)), t.stack[len(t.stack)-1]
	for _, sp := range child.spans {
		if sp.Parent < 0 {
			sp.Parent = parent
		} else {
			sp.Parent += base
		}
		t.spans = append(t.spans, sp)
	}
}

func (s *svc) pass(tr *tracer) passResult {
	tracers := make([]*tracer, len(s.clients))
	var wg sync.WaitGroup
	for i, cl := range s.clients {
		if tr != nil {
			tracers[i] = newTracer(tr.epoch, int32(i+1), false)
			tracers[i].pass = tr.pass
			tracers[i].spans = make([]span, 0, s.perSegment+1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := tracers[i]
			if t == nil {
				cl.run(s.h, s.perSegment, nil)
				return
			}
			id := t.begin("bench.client", "")
			cl.run(s.h, s.perSegment, t)
			t.end(id)
		}()
	}
	wg.Wait()
	s.segments++
	r := passResult{counts: map[string]float64{"service.assignment_builds": float64(s.srv.AssignmentBuilds())}}
	for i, cl := range s.clients {
		if tr != nil {
			tr.adopt(tracers[i])
		}
		r.attempted += int64(s.perSegment)
		r.failed += cl.failed
		r.problems = append(r.problems, cl.problems...)
		r.counts["service.status_2xx"] += float64(cl.status[0])
		r.counts["service.status_4xx"] += float64(cl.status[1])
		r.counts["service.status_5xx"] += float64(cl.status[2])
	}
	return r
}

// replayResult is what applying the churn streams' batches directly to
// fresh PartitionStates gave.
type replayResult struct {
	states     []*partition.PartitionState
	seconds    float64 // inside ApplyBatch, after the pre-load
	edges      int64
	allocBytes uint64
}

// replay applies to a fresh PartitionState per stream exactly what the
// service was sent: the pre-load chunks, then every scripted batch of
// every segment run so far, in order.
func (s *svc) replay() (*replayResult, error) {
	if s.replayed != nil {
		return s.replayed, nil
	}
	res := &replayResult{}
	for _, plan := range s.plans {
		// The service pins greedy strategies to one loader for live streams.
		strat, err := partition.New(plan.strategy, partition.Options{Loaders: 1})
		if err != nil {
			return nil, err
		}
		st, err := partition.NewPartitionState(strat, partsGAS, s.cfg.seed, s.cfg.workers)
		if err != nil {
			return nil, err
		}
		preload := plan.preload
		if s.cfg.sabotage {
			preload = preload[:len(preload)-1]
		}
		for at := 0; at < len(preload); at += preloadChunk {
			if _, err := st.ApplyBatch(preload[at:min(at+preloadChunk, len(preload))], nil); err != nil {
				return nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < s.segments*s.perSegment; i++ {
			rq := &plan.script[i%len(plan.script)]
			if rq.method != "POST" {
				continue
			}
			if _, err := st.ApplyBatch(rq.adds, rq.dels); err != nil {
				return nil, err
			}
			res.edges += int64(len(rq.adds) + len(rq.dels))
		}
		res.seconds += time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		res.states = append(res.states, st)
	}
	s.replayed = res
	return res, nil
}

// finish checks, for churn, that every stream ended in exactly the state
// the direct replay ends in.
func (s *svc) finish() passResult {
	if !s.churn {
		return passResult{}
	}
	r := passResult{attempted: int64(len(s.plans))}
	res, err := s.replay()
	if err != nil {
		r.failed, r.problems = r.attempted, []string{fmt.Sprintf("direct replay: %v", err)}
		return r
	}
	for i, plan := range s.plans {
		state := &plan.script[len(plan.script)-1] // every cycle ends with the state read
		status, body, err := s.clients[i].send(s.h, state)
		var got struct {
			LiveEdges         int64
			Vertices          int
			ReplicationFactor float64
			EdgeBalance       float64
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &got)
		}
		st := res.states[i]
		if err != nil || status != http.StatusOK || got.LiveEdges != st.NumEdges() || got.Vertices != st.NumVertices() ||
			got.ReplicationFactor != st.ReplicationFactor() || got.EdgeBalance != st.EdgeBalance() {
			r.problems = append(r.problems, fmt.Sprintf("stream %s: service holds %d edges RF %v balance %v, direct replay %d edges RF %v balance %v (status %d, %v)",
				plan.stream, got.LiveEdges, got.ReplicationFactor, got.EdgeBalance,
				st.NumEdges(), st.ReplicationFactor(), st.EdgeBalance(), status, err))
			r.failed++
		}
	}
	return r
}

// extras derives the service layer's numbers from the request spans and,
// for churn, prices the handler against the direct replay.
func (s *svc) extras(_ *config, _ *tracer, spans []span, lm layerMetrics) error {
	type opTotal struct {
		ns float64
		n  int
	}
	ops := map[string]*opTotal{}
	var lat []float64
	for _, sp := range spans {
		if sp.layer() != "service" {
			continue
		}
		ns := float64(sp.dur().Nanoseconds())
		lat = append(lat, ns/1e3)
		t := ops[sp.Name]
		if t == nil {
			t = &opTotal{}
			ops[sp.Name] = t
		}
		t.ns += ns
		t.n++
	}
	var handlerNs, churnNs float64
	for op, t := range ops {
		lm[op+"_ns_per_req"] = t.ns / float64(t.n)
		handlerNs += t.ns
		if strings.HasPrefix(op, "service.churn_b") {
			churnNs += t.ns
		}
	}
	passes := float64(numPasses(spans))
	lm["service.handler_s"] = handlerNs / 1e9 / passes
	lm["service.lat_p50_us"] = median(lat)
	lm["service.lat_p99_us"] = percentile(lat, 99)
	segment := median(spanTotals(spans, "pass", ""))
	lm["service.req_per_s"] = float64(s.cfg.workers*s.perSegment) / segment
	lm["service.cold_build_s"] = s.coldBuildS
	lm["datasets.load_s"] = s.datasetLoadS
	lm["datasets.manifest_s"] = s.manifestS
	// Bytes are those of the last segment: metrics replies and churn bodies
	// differ a little from one segment to the next.
	var reqBytes, respBytes int64
	for _, cl := range s.clients {
		reqBytes += cl.reqBytes
		respBytes += cl.respByte
	}
	n := float64(s.cfg.workers * s.perSegment)
	lm["service.req_bytes_per_req"] = float64(reqBytes) / n
	lm["service.resp_bytes_per_req"] = float64(respBytes) / n
	if !s.churn {
		return nil
	}
	lm["service.churn_edges_per_s"] = float64(s.perItems) / segment
	res, err := s.replay()
	if err != nil {
		return err
	}
	direct := res.seconds * 1e9 / float64(res.edges)
	lm["partition.apply_batch_s"] = res.seconds
	lm["partition.apply_edges_per_s"] = float64(res.edges) / res.seconds
	lm["partition.apply_alloc_bytes_per_edge"] = float64(res.allocBytes) / float64(res.edges)
	lm["service.direct_apply_ns_per_edge"] = direct
	lm["service.overhead_share"] = 1 - direct/(churnNs/(passes*float64(s.perItems)))
	return nil
}

func newServiceLookup() *svc { return &svc{name: "service-lookup"} }
func newServiceChurn() *svc  { return &svc{name: "service-churn", churn: true} }
