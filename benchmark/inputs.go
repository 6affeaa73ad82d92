package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"

	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

// sizes fixes how big the generated inputs are. The benchmark always runs
// at fullSizes; the package's tests run every workload at miniSizes so
// that tier-1 stays fast. It is an internal parameter, not a flag: two
// ledger lines are comparable only when they were measured at one size.
type sizes struct {
	webN, webMaxOut int // gen.WebGraph pages and out-degree cap
	webEdges        int // the web graph is cut to this many edges
	roadSide        int // gen.RoadNet lattice side
	streamSide      int // lattice side of the larger road network stream-ingest reads
	socialN         int // gen.PrefAttach vertices (m = 10)
	lookupSegment   int // requests per client in one service-lookup segment
	churnPreload    int // edges pre-loaded into each churn stream
	churnCycles     int // 21-batch cycles per client in one service-churn segment
}

var (
	// 0.35 M power-law, ≈0.57 M low-degree and 0.50 M heavy-tailed edges:
	// the paper's three degree classes, sized so that a pass takes
	// 0.04–0.3 s and a run of a few seconds holds dozens of passes.
	// stream-ingest reads a road network of 1 M vertices (≈3.6 M edges), so
	// that the O(|V|·P/8) summary it retains is ≈10 MiB and not lost in the
	// runtime's own few hundred KiB. 75 000 pre-loaded churn edges sit
	// midway between two growth steps of a Go map (53 k and 106 k keys): at
	// 100 000 some seeds cross the step and retain 5 MiB more.
	fullSizes = sizes{
		webN: 20_000, webMaxOut: 2_000, webEdges: 350_000, roadSide: 400, streamSide: 1_000, socialN: 50_000,
		lookupSegment: 10_000, churnPreload: 75_000, churnCycles: 80,
	}
	miniSizes = sizes{
		webN: 600, webMaxOut: 60, webEdges: 4_000, roadSide: 24, streamSide: 40, socialN: 500,
		lookupSegment: 200, churnPreload: 800, churnCycles: 1,
	}
)

const (
	socialM     = 10
	partsGAS    = 16 // cluster.EC2x16
	partsGraphX = 40 // cluster.GraphXLocal10
)

// genWeb cuts the generated crawl to a fixed number of edges. A Zipf
// out-degree sequence makes |E| vary by several percent from seed to seed;
// left in, that variation would show in every metric as noise. The edge
// list is sorted by source, so the cut drops the last pages' out-links.
func genWeb(seed uint64, sz sizes) *graph.Graph {
	g := gen.WebGraph("web", gen.WebGraphConfig{
		N: sz.webN, Alpha: 1.62, MaxOutD: sz.webMaxOut, Locality: 0.86, Window: 64, Seed: seed,
	})
	if g.NumEdges() <= sz.webEdges {
		return g
	}
	return graph.FromEdges("web", g.Edges[:sz.webEdges])
}

func genRoad(seed uint64, sz sizes) *graph.Graph {
	return gen.RoadNet("road", sz.roadSide, sz.roadSide, seed)
}

func genRoadWide(seed uint64, sz sizes) *graph.Graph {
	return gen.RoadNet("road-wide", sz.streamSide, sz.streamSide, seed)
}

func genSocial(seed uint64, sz sizes) *graph.Graph {
	return gen.PrefAttach("social", sz.socialN, socialM, seed)
}

// graphFile names one on-disk form of a generated graph; version 0 is the
// text edge list.
type graphFile struct {
	name    string
	version int
}

var (
	webV2    = graphFile{"web.v2.csrg", graph.CSRVersion2}
	webV1    = graphFile{"web.v1.csrg", graph.CSRVersion1}
	webText  = graphFile{"web.txt", 0}
	roadText = graphFile{"road.txt", 0}
	roadV2   = graphFile{"road-wide.v2.csrg", graph.CSRVersion2}
	socialV1 = graphFile{"social.v1.csrg", graph.CSRVersion1}
)

// save writes g into dir in the file's format and returns the path.
func (f graphFile) save(g *graph.Graph, dir string) (string, error) {
	path := filepath.Join(dir, f.name)
	if f.version == 0 {
		return path, graph.SaveEdgeList(g, path)
	}
	return path, graph.SaveCSRVersion(g, path, f.version)
}

// request is one scripted HTTP call. op is the span name it is recorded
// under; adds and dels repeat the body's edges for the direct replay.
type request struct {
	method, path string
	body         []byte
	op           string
	adds, dels   []graph.Edge
}

var lookupStrategies = []string{"2D", "Grid", "HDRF"}

// lookupMix is the read traffic per hundred requests: vertex lookups
// with Zipf-popular vertices over three cached assignments, manifest
// reads, advisor queries, metrics scrapes. The shares are exact, not
// sampled — an advisor query allocates ten times what a lookup does, so a
// sampled mix would make bytes per request differ from seed to seed.
var lookupMix = []struct {
	op    string
	share int
}{{"service.lookup", 90}, {"service.manifest", 5}, {"service.advise", 4}, {"service.metrics", 1}}

// lookupScript is one client's read traffic for one segment: the mix
// above in every hundred requests, in an order shuffled from the seed.
func lookupScript(seed uint64, client int, dataset string, numVertices, n int) []request {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(client)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(numVertices-1))
	var hundred []string
	for _, m := range lookupMix {
		for i := 0; i < m.share; i++ {
			hundred = append(hundred, m.op)
		}
	}
	out := make([]request, n)
	for i := range out {
		if i%len(hundred) == 0 {
			rng.Shuffle(len(hundred), func(a, b int) { hundred[a], hundred[b] = hundred[b], hundred[a] })
		}
		rq := request{method: "GET", op: hundred[i%len(hundred)]}
		switch rq.op {
		case "service.lookup":
			// Spread the popular ranks over the id space, as crawl order
			// spreads popular hosts.
			v := (zipf.Uint64() * 2654435761) % uint64(numVertices)
			strat := lookupStrategies[rng.Intn(len(lookupStrategies))]
			rq.path = fmt.Sprintf("/v1/assignment/%s/%s?parts=%d&vertex=%d", dataset, strat, partsGAS, v)
		case "service.manifest":
			rq.path = "/v1/datasets/" + dataset
		case "service.advise":
			rq.path = fmt.Sprintf("/v1/advise?dataset=%s&system=PowerGraph&machines=%d&ratio=4&app=PageRank", dataset, partsGAS)
		case "service.metrics":
			rq.path = "/v1/metrics"
		}
		out[i] = rq
	}
	return out
}

// churnStrategies[c % 4] is the strategy of client c's stream: two
// stateless and two greedy, so both incremental paths take traffic.
var churnStrategies = []string{"2D", "HDRF", "Grid", "Oblivious"}

// churnBatches is one cycle's batch sizes: small batches price the
// per-request overhead, the large one the per-edge cost, and each size
// class moves a comparable number of edges.
var churnBatches = func() []int {
	var b []int
	for i := 0; i < 16; i++ {
		b = append(b, 4)
	}
	return append(b, 32, 32, 32, 32, 256)
}()

const churnCycleEdges = 16*4 + 4*32 + 256 // adds (and dels) per cycle

func churnOp(batch int) string { return "service.churn_b" + strconv.Itoa(batch) }

// churnPlan is one client's write traffic: the stream's identity, the
// edges pre-loaded before timing, and a script of whole cycles that ends
// exactly where it began, so it can repeat for as long as the run lasts.
type churnPlan struct {
	stream, strategy string
	preload          []graph.Edge
	script           []request
}

// newChurnPlan gives client c of w its own contiguous block of edges.
// Every batch adds the next edges of the block and deletes the oldest
// live ones, so the stream always holds preload edges, no delete ever
// misses, and after one trip round the block the state repeats.
func newChurnPlan(edges []graph.Edge, c, w, preload int) (churnPlan, error) {
	size := len(edges) / w / churnCycleEdges * churnCycleEdges
	if size <= preload {
		return churnPlan{}, fmt.Errorf("churn: a block of %d edges cannot hold %d pre-loaded ones", size, preload)
	}
	block := edges[c*size : (c+1)*size]
	p := churnPlan{
		stream:   "client" + strconv.Itoa(c),
		strategy: churnStrategies[c%len(churnStrategies)],
		preload:  block[:preload],
	}
	state := request{method: "GET", op: "service.state_get",
		path: fmt.Sprintf("/v1/churn?stream=%s&strategy=%s&parts=%d", p.stream, p.strategy, partsGAS)}
	slice := func(from, n int) []graph.Edge {
		out := make([]graph.Edge, n)
		for i := range out {
			out[i] = block[(from+i)%size]
		}
		return out
	}
	for at := 0; at < size; {
		for _, n := range churnBatches {
			adds, dels := slice(at+preload, n), slice(at, n)
			p.script = append(p.script, request{
				method: "POST", path: "/v1/churn", op: churnOp(n),
				body: churnBody(p.stream, p.strategy, adds, dels), adds: adds, dels: dels,
			})
			at += n
		}
		p.script = append(p.script, state)
	}
	return p, nil
}

func churnBody(stream, strategy string, adds, dels []graph.Edge) []byte {
	b := make([]byte, 0, 64+14*(len(adds)+len(dels)))
	b = append(b, `{"stream":"`...)
	b = append(b, stream...)
	b = append(b, `","strategy":"`...)
	b = append(b, strategy...)
	b = append(b, `","parts":`...)
	b = strconv.AppendInt(b, partsGAS, 10)
	pairs := func(key string, es []graph.Edge) {
		b = append(b, `,"`...)
		b = append(b, key...)
		b = append(b, `":[`...)
		for i, e := range es {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendUint(b, uint64(e.Src), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(e.Dst), 10)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	pairs("adds", adds)
	pairs("dels", dels)
	return append(b, '}')
}
