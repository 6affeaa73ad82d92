package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"graphpart/internal/partition"
)

// churnOp is one recorded churn request body, replayed verbatim during
// the sequential pass.
type churnOp struct {
	client int
	body   string
}

// batteryEdges returns the deterministic edge block client g adds at
// iteration i. Blocks are disjoint across (g, i), so a client only ever
// deletes edges it added itself — the precondition that makes the final
// live-edge multiset independent of interleaving. The ID space is kept
// compact: PartitionState sizes its bookkeeping by max vertex ID, so
// sparse IDs would turn every batch into a giant array grow.
func batteryEdges(g, i int) [][2]uint32 {
	base := uint32(g*2_000 + i*100)
	out := make([][2]uint32, 4)
	for k := range out {
		src := base + uint32(k)*2
		out[k] = [2]uint32{src, src + 1}
	}
	return out
}

func churnBody(stream string, adds, dels [][2]uint32) string {
	enc := func(pairs [][2]uint32) string {
		s := "["
		for i, p := range pairs {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("[%d,%d]", p[0], p[1])
		}
		return s + "]"
	}
	return fmt.Sprintf(`{"stream":%q,"strategy":"2D","parts":8,"adds":%s,"dels":%s}`,
		stream, enc(adds), enc(dels))
}

// TestConcurrentBattery is the service-layer extension of the partition
// package's TestStatelessChurnEquivalence: N clients hammer one server
// with a mix of assignment lookups, churn batches, and advisor queries
// under -race, and the final churn-stream state must be byte-identical
// to a sequential replay of the same batches on a fresh server. Every
// client's advisor answer must equal the replay server's, and the metrics
// counters must account for exactly the requests the script made.
func TestConcurrentBattery(t *testing.T) {
	const (
		clients = 8
		iters   = 12
	)
	live := newTestServer(t, Config{DefaultParts: 4})

	// Warm the advisor so the battery's advise calls hit a fitted model.
	if rec := do(live, http.MethodPost, "/v1/advisor/fit", fitReportJSON()); rec.Code != http.StatusOK {
		t.Fatalf("fit: %d (%s)", rec.Code, rec.Body)
	}

	const adviseURL = "/v1/advise?dataset=road-ca&machines=16&app=PageRank"
	strategies := []string{"Grid", "Random", "2D"}
	ops := make([][]churnOp, clients)
	adviseBodies := make([]string, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Assignment lookup: same small key set from every client,
				// so the singleflight cache is contended for real.
				strat := strategies[(g+i)%len(strategies)]
				if rec := do(live, http.MethodGet, "/v1/assignment/road-ca/"+strat+"?parts=4", ""); rec.Code != http.StatusOK {
					t.Errorf("client %d: assignment %s: %d (%s)", g, strat, rec.Code, rec.Body)
					return
				}

				// Churn: add this iteration's block, delete the block from
				// two iterations ago.
				adds := batteryEdges(g, i)
				var dels [][2]uint32
				if i >= 2 {
					dels = batteryEdges(g, i-2)[:2]
				}
				body := churnBody("battery", adds, dels)
				if rec := do(live, http.MethodPost, "/v1/churn", body); rec.Code != http.StatusOK {
					t.Errorf("client %d: churn: %d (%s)", g, rec.Code, rec.Body)
					return
				}
				ops[g] = append(ops[g], churnOp{client: g, body: body})

				// Advisor read.
				rec := do(live, http.MethodGet, adviseURL, "")
				if rec.Code != http.StatusOK {
					t.Errorf("client %d: advise: %d (%s)", g, rec.Code, rec.Body)
					return
				}
				adviseBodies[g] = rec.Body.String()
				// Metrics read races the counters' atomics.
				if rec := do(live, http.MethodGet, "/v1/metrics", ""); rec.Code != http.StatusOK {
					t.Errorf("client %d: metrics: %d", g, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const stateURL = "/v1/churn?stream=battery&strategy=2D&parts=8"
	liveState := do(live, http.MethodGet, stateURL, "")
	if liveState.Code != http.StatusOK {
		t.Fatalf("live state: %d (%s)", liveState.Code, liveState.Body)
	}

	// The server's own counters account for every scripted request: one per
	// client and iteration on each op, plus the state read on churn.
	want := map[string]float64{
		"assignment": clients * iters,
		"churn":      clients*iters + 1,
		"advise":     clients * iters,
		"metrics":    clients * iters,
	}
	counted := map[string]float64{}
	for _, c := range live.MetricsCells() {
		counted[c.Dims.Variant+"/"+c.Metric] = c.Value
	}
	for op, n := range want {
		if counted[op+"/requests"] != n || counted[op+"/client-errors"] != 0 || counted[op+"/server-errors"] != 0 {
			t.Errorf("metrics: %s counts %v requests, %v client and %v server errors; the script made %v and no errors",
				op, counted[op+"/requests"], counted[op+"/client-errors"], counted[op+"/server-errors"], n)
		}
	}

	// Sequential replay on a fresh server: each client's batches in its
	// own order, clients one after another.
	replay := newTestServer(t, Config{DefaultParts: 4})
	if rec := do(replay, http.MethodPost, "/v1/advisor/fit", fitReportJSON()); rec.Code != http.StatusOK {
		t.Fatalf("replay fit: %d (%s)", rec.Code, rec.Body)
	}
	for _, clientOps := range ops {
		for _, op := range clientOps {
			if rec := do(replay, http.MethodPost, "/v1/churn", op.body); rec.Code != http.StatusOK {
				t.Fatalf("replay: %d (%s)", rec.Code, rec.Body)
			}
		}
	}
	replayState := do(replay, http.MethodGet, stateURL, "")
	if replayState.Code != http.StatusOK {
		t.Fatalf("replay state: %d (%s)", replayState.Code, replayState.Body)
	}

	if liveState.Body.String() != replayState.Body.String() {
		t.Fatalf("concurrent state diverged from sequential replay:\nconcurrent: %s\nsequential: %s",
			liveState.Body, replayState.Body)
	}

	// Every racing client got the one recommendation the replay server gives.
	replayAdvise := do(replay, http.MethodGet, adviseURL, "")
	if replayAdvise.Code != http.StatusOK {
		t.Fatalf("replay advise: %d (%s)", replayAdvise.Code, replayAdvise.Body)
	}
	for g, body := range adviseBodies {
		if body != replayAdvise.Body.String() {
			t.Errorf("client %d: advise under load differs from the replay server's:\nconcurrent: %s\nsequential: %s",
				g, body, replayAdvise.Body)
		}
	}

	// And both match a direct PartitionState replay below the HTTP layer,
	// tying the service contract back to the partition package's own
	// equivalence guarantee.
	st, err := partition.New("2D", partition.Options{Loaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := partition.NewPartitionState(st, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < clients; g++ {
		for i := 0; i < iters; i++ {
			adds := edgesOf(batteryEdges(g, i))
			var dels [][2]uint32
			if i >= 2 {
				dels = batteryEdges(g, i-2)[:2]
			}
			if _, err := ps.ApplyBatch(adds, edgesOf(dels)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got churnResponse
	decodeBodyJSON(t, liveState, &got)
	if got.LiveEdges != ps.NumEdges() || got.Vertices != ps.NumVertices() {
		t.Fatalf("service state (edges=%d verts=%d) != direct replay (edges=%d verts=%d)",
			got.LiveEdges, got.Vertices, ps.NumEdges(), ps.NumVertices())
	}
	if got.ReplicationFactor != ps.ReplicationFactor() || got.EdgeBalance != ps.EdgeBalance() {
		t.Fatalf("service quality (rf=%v bal=%v) != direct replay (rf=%v bal=%v)",
			got.ReplicationFactor, got.EdgeBalance, ps.ReplicationFactor(), ps.EdgeBalance())
	}
}
