package bench

// svc.qps load-tests the resident partition service: four clients drive a
// fixed script of mixed assignment/churn/advise traffic (plus async
// partition jobs) against an in-process service.Server, then the final
// churn-stream state is compared byte-for-byte against a sequential
// replay of the same batches on a fresh server. Every cell is a
// deterministic script count; the request and churn rates the service
// sustains are wall-clock, and benchmark/ measures them (service.req_per_s,
// service.churn_edges_per_s, the service-lookup and service-churn workloads).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphpart/internal/report"
	"graphpart/internal/service"
)

func init() {
	register(svcQPS())
}

const (
	svcClients = 4
	svcIters   = 25
	svcStream  = "qps"
	svcParts   = 16
	// svcJobParts must be a perfect square (Grid rejects non-square part
	// counts) and differ from svcParts so the job keys are disjoint from
	// the assignment-read keys.
	svcJobParts = 4
)

// svcReadStrategies rotate through the assignment lookups; svcJobStrategies
// are submitted as async jobs, one per client. Together they make exactly
// 7 distinct (dataset, strategy, parts) keys — the singleflight build
// count the experiment pins.
var (
	svcReadStrategies = []string{"2D", "Grid", "HDRF"}
	svcJobStrategies  = []string{"Random", "Grid", "HDRF", "2D"}
)

// svcDo dispatches one request straight into the handler stack: the
// traffic is in-process by design, no sockets.
func svcDo(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// svcEdges is client g's deterministic edge block for iteration i;
// blocks are disjoint so clients only delete their own prior adds (the
// same construction the service test battery uses).
func svcEdges(g, i int) [][2]uint32 {
	base := uint32(g*2_000 + i*40)
	out := make([][2]uint32, 4)
	for k := range out {
		src := base + uint32(k)*2
		out[k] = [2]uint32{src, src + 1}
	}
	return out
}

func svcChurnBody(adds, dels [][2]uint32) string {
	enc := func(pairs [][2]uint32) string {
		var b strings.Builder
		b.WriteByte('[')
		for i, p := range pairs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", p[0], p[1])
		}
		b.WriteByte(']')
		return b.String()
	}
	return fmt.Sprintf(`{"stream":%q,"strategy":"2D","parts":%d,"adds":%s,"dels":%s}`,
		svcStream, svcParts, enc(adds), enc(dels))
}

// svcClientChurn returns client g's full churn-body sequence in order.
func svcClientChurn(g int) []string {
	out := make([]string, 0, svcIters)
	for i := 0; i < svcIters; i++ {
		var dels [][2]uint32
		if i >= 2 {
			dels = svcEdges(g, i-2)[:2]
		}
		out = append(out, svcChurnBody(svcEdges(g, i), dels))
	}
	return out
}

// svcFitBody is the report the advisor is warmed from: one measured group
// on road-ca so /v1/advise answers during the load phase.
func svcFitBody() (string, error) {
	rep := report.Report{
		SchemaVersion: report.SchemaVersion,
		Tool:          "svc.qps",
		Experiments: []report.Experiment{{
			ID: "svc.fit", Title: "advisor warmup fixture",
			Cells: []report.Cell{
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "Random", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 12, Unit: "s"},
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "Grid", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 9, Unit: "s"},
				{Dims: report.Dims{Engine: "PowerGraph", Dataset: "road-ca", Strategy: "HDRF", App: "PageRank", Parts: 16}, Metric: "total-s", Value: 10, Unit: "s"},
			},
		}},
	}
	b, err := json.Marshal(rep)
	return string(b), err
}

const svcAdviseURL = "/v1/advise?dataset=road-ca&system=PowerGraph&machines=16&ratio=4&app=PageRank"
const svcStateURL = "/v1/churn?stream=" + svcStream + "&strategy=2D&parts=16"

func svcConfig(cfg Config) service.Config {
	return service.Config{
		Scale:           cfg.Scale,
		Seed:            cfg.Seed,
		HybridThreshold: cfg.HybridThreshold,
		Workers:         cfg.Workers,
		DefaultParts:    svcParts,
		// The queue holds every scripted job comfortably: a 429 here would
		// be a nondeterministic script, not load shedding.
		JobQueue:   svcClients * 4,
		JobWorkers: 2,
	}
}

func svcShutdown(s *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func svcQPS() Experiment {
	return Experiment{
		ID:    "svc.qps",
		Title: "Partition service under mixed concurrent load",
		Paper: "no counterpart — the paper partitions frozen edge lists once per job; this drives the resident service with concurrent assignment/churn/advise traffic plus async partition jobs and proves the racing state equals sequential replay",
		Run: func(cfg Config) (*Result, error) {
			fitBody, err := svcFitBody()
			if err != nil {
				return nil, err
			}
			live := service.New(svcConfig(cfg))
			defer svcShutdown(live) //nolint:errcheck // jobs are polled to completion below
			h := live.Handler()

			if rec := svcDo(h, http.MethodPost, "/v1/advisor/fit", fitBody); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("svc.qps: fit: %d (%s)", rec.Code, rec.Body)
			}

			// --- concurrent load phase ---------------------------------
			var httpErrs atomic.Int64
			jobIDs := make([]string, svcClients)
			adviseBodies := make([]string, svcClients)
			var wg sync.WaitGroup
			for g := 0; g < svcClients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					jb := fmt.Sprintf(`{"dataset":"road-ca","strategy":%q,"parts":%d}`, svcJobStrategies[g], svcJobParts)
					if rec := svcDo(h, http.MethodPost, "/v1/jobs", jb); rec.Code == http.StatusAccepted {
						var j service.Job
						if json.Unmarshal(rec.Body.Bytes(), &j) == nil {
							jobIDs[g] = j.ID
						}
					} else {
						httpErrs.Add(1)
					}
					churn := svcClientChurn(g)
					for i := 0; i < svcIters; i++ {
						strat := svcReadStrategies[(g+i)%len(svcReadStrategies)]
						if rec := svcDo(h, http.MethodGet, "/v1/assignment/road-ca/"+strat+"?parts=16", ""); rec.Code != http.StatusOK {
							httpErrs.Add(1)
						}
						if rec := svcDo(h, http.MethodPost, "/v1/churn", churn[i]); rec.Code != http.StatusOK {
							httpErrs.Add(1)
						}
						rec := svcDo(h, http.MethodGet, svcAdviseURL, "")
						if rec.Code != http.StatusOK {
							httpErrs.Add(1)
						} else if i == 0 {
							adviseBodies[g] = rec.Body.String()
						}
					}
				}(g)
			}
			wg.Wait()

			// --- drain the async jobs ----------------------------------
			jobs := make([]service.Job, svcClients)
			//graphlint:nondet poll deadline only: it turns a stuck job into an error, and an errored experiment emits no cells
			deadline := time.Now().Add(120 * time.Second)
			for g, id := range jobIDs {
				if id == "" {
					continue
				}
				for {
					rec := svcDo(h, http.MethodGet, "/v1/jobs/"+id, "")
					if rec.Code != http.StatusOK {
						return nil, fmt.Errorf("svc.qps: poll %s: %d", id, rec.Code)
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &jobs[g]); err != nil {
						return nil, err
					}
					if jobs[g].Status == service.JobDone || jobs[g].Status == service.JobFailed {
						break
					}
					//graphlint:nondet same deadline: the only outcome it selects is the error return
					if time.Now().After(deadline) {
						return nil, fmt.Errorf("svc.qps: job %s stuck in %s", id, jobs[g].Status)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}

			liveState := svcDo(h, http.MethodGet, svcStateURL, "")
			if liveState.Code != http.StatusOK {
				return nil, fmt.Errorf("svc.qps: live state: %d (%s)", liveState.Code, liveState.Body)
			}

			// --- sequential replay on a fresh server -------------------
			replay := service.New(svcConfig(cfg))
			defer svcShutdown(replay) //nolint:errcheck // the replay server runs no jobs
			rh := replay.Handler()
			if rec := svcDo(rh, http.MethodPost, "/v1/advisor/fit", fitBody); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("svc.qps: replay fit: %d (%s)", rec.Code, rec.Body)
			}
			for g := 0; g < svcClients; g++ {
				for _, body := range svcClientChurn(g) {
					if rec := svcDo(rh, http.MethodPost, "/v1/churn", body); rec.Code != http.StatusOK {
						return nil, fmt.Errorf("svc.qps: replay churn: %d (%s)", rec.Code, rec.Body)
					}
				}
			}
			replayState := svcDo(rh, http.MethodGet, svcStateURL, "")
			replayAdvise := svcDo(rh, http.MethodGet, svcAdviseURL, "")

			// --- assemble ----------------------------------------------
			adds := svcClients * svcIters * 4
			dels := svcClients * (svcIters - 2) * 2
			liveEdges := adds - dels
			reads := svcClients * svcIters

			r := NewResult("svc.qps",
				fmt.Sprintf("Partition service under mixed load (%d clients × %d iters, road-ca)", svcClients, svcIters),
				"op", "requests", "errors", "notes")
			tbl := []struct {
				op       string
				requests int
				notes    string
			}{
				{"advisor-fit", 1, "report upload refits the warm model"},
				{"jobs", svcClients, fmt.Sprintf("async %v at %d parts", svcJobStrategies, svcJobParts)},
				{"assignment", reads, fmt.Sprintf("road-ca × %v at %d parts", svcReadStrategies, svcParts)},
				{"churn", reads + 1, fmt.Sprintf("stream %s, 2D/%d: %d adds, %d dels", svcStream, svcParts, adds, dels)},
				{"advise", reads, "PowerGraph on road-ca from the warm model"},
			}
			totalReq := 0
			for _, e := range tbl {
				totalReq += e.requests
				r.Row(report.Dims{Dataset: "road-ca", Variant: e.op}).
					Col(e.op).
					Colf("%d", e.requests).
					Colf("%d", 0).
					Col(e.notes).
					Value("requests", float64(e.requests), "req")
			}

			// --- checks ------------------------------------------------
			clean := httpErrs.Load() == 0
			r.Checkf(clean, "every scripted request succeeds under concurrent load",
				"%d of %d requests returned non-2xx: %s", httpErrs.Load(), totalReq, Mark(clean))

			replayOK := replayState.Code == http.StatusOK &&
				liveState.Body.String() == replayState.Body.String()
			r.Checkf(replayOK, "the concurrently mutated churn stream is byte-identical to sequential replay",
				"racing %d batches from %d clients converges to the replayed state (%d live edges): %s",
				reads, svcClients, liveEdges, Mark(replayOK))

			wantBuilds := int64(len(svcReadStrategies) + len(svcJobStrategies))
			builds := live.AssignmentBuilds()
			sfOK := builds == wantBuilds
			r.Checkf(sfOK, "the singleflight cache computes each distinct partitioning exactly once",
				"%d requests triggered %d builds for %d distinct keys: %s", totalReq, builds, wantBuilds, Mark(sfOK))

			jobsOK := true
			for g := range jobs {
				if jobIDs[g] == "" || jobs[g].Status != service.JobDone ||
					jobs[g].ReplicationFactor < 1 || jobs[g].Edges == 0 {
					jobsOK = false
				}
			}
			r.Checkf(jobsOK, "every async partition job completes with quality metrics during the load",
				"%d jobs done across %v: %s", svcClients, svcJobStrategies, Mark(jobsOK))

			adviseOK := replayAdvise.Code == http.StatusOK
			for _, b := range adviseBodies {
				if b != replayAdvise.Body.String() {
					adviseOK = false
				}
			}
			r.Checkf(adviseOK, "advisor answers are identical across racing clients and equal the replay server's",
				"%d clients, one recommendation: %s", svcClients, Mark(adviseOK))

			countersOK := svcCountersMatch(live, tbl[2].requests, tbl[3].requests, tbl[4].requests)
			r.Checkf(countersOK, "the metrics endpoint accounts for every scripted request",
				"per-op request counters match the script: %s", Mark(countersOK))

			r.Notef("requests dispatch in-process (no sockets); job-status polling is excluded from the scripted counts; request and churn rates are wall-clock and are measured by benchmark/ (service.req_per_s, service.churn_edges_per_s)")
			return r, nil
		},
	}
}

// svcCountersMatch verifies the server's own metrics counters agree with
// the deterministic script for the three load-bearing operations.
func svcCountersMatch(s *service.Server, assignment, churn, advise int) bool {
	got := map[string]float64{}
	for _, c := range s.MetricsCells() {
		if c.Metric == "requests" && c.Dims.Variant != "" {
			got[c.Dims.Variant] = c.Value
		}
	}
	return got["assignment"] == float64(assignment) &&
		got["churn"] == float64(churn) &&
		got["advise"] == float64(advise)
}
