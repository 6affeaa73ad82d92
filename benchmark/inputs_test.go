package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"graphpart/internal/graph"
)

// files generates and writes every input file for a seed and returns the
// bytes by file name.
func files(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	out := map[string][]byte{}
	for _, in := range []struct {
		f graphFile
		g *graph.Graph
	}{
		{webV2, genWeb(seed, miniSizes)}, {webV1, genWeb(seed, miniSizes)}, {webText, genWeb(seed, miniSizes)},
		{roadText, genRoad(seed, miniSizes)}, {roadV2, genRoadWide(seed, miniSizes)}, {socialV1, genSocial(seed, miniSizes)},
	} {
		path, err := in.f.save(in.g, dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[in.f.name] = b
	}
	return out
}

func TestSameSeedSameFiles(t *testing.T) {
	a, b, c := files(t, 7), files(t, 7), files(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: the same seed wrote different bytes", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 wrote the same bytes", name)
		}
	}
}

func TestSameSeedSameScripts(t *testing.T) {
	lookups := func(seed uint64, client int) []request { return lookupScript(seed, client, "ds", 500, 300) }
	if !reflect.DeepEqual(lookups(7, 0), lookups(7, 0)) {
		t.Error("lookup script: the same seed and client gave different requests")
	}
	if reflect.DeepEqual(lookups(7, 0), lookups(8, 0)) || reflect.DeepEqual(lookups(7, 0), lookups(7, 1)) {
		t.Error("lookup script: another seed or client gave the same requests")
	}
	ops := map[string]int{}
	for _, rq := range lookups(7, 0) {
		ops[rq.op]++
	}
	if ops["service.lookup"] != 270 || ops["service.manifest"] != 15 || ops["service.advise"] != 12 || ops["service.metrics"] != 3 {
		t.Errorf("lookup script mix over 300 requests = %v, want exactly 270/15/12/3", ops)
	}

	churn := func(seed uint64) churnPlan {
		p, err := newChurnPlan(genSocial(seed, miniSizes).Edges, 1, 2, miniSizes.churnPreload)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if !reflect.DeepEqual(churn(7), churn(7)) {
		t.Error("churn plan: the same seed gave different requests")
	}
	if reflect.DeepEqual(churn(7).script, churn(8).script) {
		t.Error("churn plan: seeds 7 and 8 gave the same requests")
	}
}

// The churn script must be replayable for ever: every delete names an
// edge that is live, the stream's size never changes, and after the last
// request the live set is the one the script started from.
func TestChurnScriptCloses(t *testing.T) {
	plan, err := newChurnPlan(genSocial(3, miniSizes).Edges, 0, 2, miniSizes.churnPreload)
	if err != nil {
		t.Fatal(err)
	}
	live := map[graph.Edge]int{}
	for _, e := range plan.preload {
		live[e]++
	}
	start := map[graph.Edge]int{}
	for e, n := range live {
		start[e] = n
	}
	posts := 0
	for round := 0; round < 2; round++ {
		for _, rq := range plan.script {
			if rq.method != "POST" {
				continue
			}
			posts++
			for _, e := range rq.dels {
				if live[e] == 0 {
					t.Fatalf("request %d deletes %v, which is not live", posts, e)
				}
				if live[e]--; live[e] == 0 {
					delete(live, e)
				}
			}
			for _, e := range rq.adds {
				live[e]++
			}
			if !bytes.Equal(rq.body, churnBody(plan.stream, plan.strategy, rq.adds, rq.dels)) {
				t.Fatalf("request %d: the body does not name the edges kept for the replay", posts)
			}
		}
		if !reflect.DeepEqual(live, start) {
			t.Fatalf("after round %d the live set differs from the pre-load", round+1)
		}
	}
	if want := 2 * len(plan.script) / (len(churnBatches) + 1) * len(churnBatches); posts != want {
		t.Errorf("%d batches in two rounds, want %d", posts, want)
	}
}
