package main

import (
	"encoding/json"
	"testing"
	"time"
)

// script builds a tracer's spans from fixed times, without a clock.
func scripted(spans ...span) []span { return spans }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := scripted(
		span{Name: "pass", Start: ms(0), End: ms(100), Parent: -1},               // 0: two children, adjacent
		span{Name: "graph.load", Start: ms(0), End: ms(30), Parent: 0},           // 1: leaf
		span{Name: "graph.stream_decode", Start: ms(30), End: ms(90), Parent: 0}, // 2: nested children
		span{Name: "partition.feed", Start: ms(40), End: ms(50), Parent: 2},      // 3
		span{Name: "partition.feed", Start: ms(50), End: ms(70), Parent: 2},      // 4: adjacent to 3
		span{Name: "partition.finish", Start: ms(70), End: ms(70), Parent: 2},    // 5: zero length
	)
	want := []time.Duration{ms(10), ms(30), ms(30), ms(10), ms(20), 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	var total time.Duration
	for _, d := range got {
		total += d
	}
	if total != spans[0].dur() {
		t.Errorf("self times sum to %v, the root lasts %v", total, spans[0].dur())
	}
}

func TestPassTotalsAndCoverage(t *testing.T) {
	var spans []span
	for p := int32(0); p < 3; p++ {
		base := ms(int(p) * 1000)
		root := int32(len(spans))
		spans = append(spans,
			span{Name: "pass", Start: base, End: base + ms(100), Parent: -1, Pass: p},
			span{Name: "engine.run", Start: base, End: base + ms(60+10*int(p)), Parent: root, Pass: p},
			span{Name: "bench.verify", Start: base + ms(90), End: base + ms(100), Parent: root, Pass: p},
		)
	}
	spans = append(spans, span{Name: "engine.run", Start: ms(5000), End: ms(9000), Parent: -1, Pass: -1}) // an extra
	got := passTotals(spans, func(s span) bool { return s.Name == "engine.run" })
	want := []float64{0.06, 0.07, 0.08}
	if len(got) != len(want) {
		t.Fatalf("passTotals returned %d passes, want %d (extras must not count)", len(got), len(want))
	}
	for i := range want {
		if relDiff(got[i], want[i]) > 1e-12 {
			t.Errorf("pass %d: engine.run total %v, want %v", i, got[i], want[i])
		}
	}
	lm := layerMetrics{}
	spanSeconds(spans, lm)
	if relDiff(lm["engine.run_s"], 0.07) > 1e-12 {
		t.Errorf("engine.run_s = %v, want the median 0.07", lm["engine.run_s"])
	}
	if _, ok := lm["bench.verify_s"]; ok {
		t.Error("the benchmark's own verification is not a layer")
	}
	if got := coverage(spans); relDiff(got, 0.7) > 1e-12 {
		t.Errorf("coverage = %v, want 0.7 (verification does not count as a layer)", got)
	}
}

func TestTracerNestsAndAdopts(t *testing.T) {
	tr := newTracer(time.Now(), 0, true)
	tr.pass = 4
	root := tr.begin("pass", "")
	if err := tr.do("graph.load", "v2", func() error { _ = make([]byte, 1<<20); return nil }); err != nil {
		t.Fatal(err)
	}
	child := newTracer(tr.epoch, 7, false)
	child.pass = tr.pass
	c := child.begin("bench.client", "")
	child.end(child.begin("service.lookup", ""))
	child.end(c)
	tr.adopt(child)
	tr.end(root)

	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	load, client, lookup := tr.spans[1], tr.spans[2], tr.spans[3]
	if load.Parent != root || load.Arg != "v2" || load.Pass != 4 {
		t.Errorf("graph.load recorded as %+v", load)
	}
	if load.Alloc < 1<<20 {
		t.Errorf("graph.load allocated %d bytes, want at least 1 MiB", load.Alloc)
	}
	if client.Parent != root || client.Tid != 7 {
		t.Errorf("adopted root recorded as %+v", client)
	}
	if lookup.Parent != 2 {
		t.Errorf("adopted child's parent = %d, want 2", lookup.Parent)
	}
	var nilTracer *tracer
	ran := false
	if err := nilTracer.do("x", "", func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("a nil tracer must just call the function")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	spans := scripted(
		span{Name: "pass", Start: ms(0), End: ms(10), Parent: -1},
		span{Name: "partition.assign", Arg: "HDRF", Start: ms(1), End: ms(9), Parent: 0, Alloc: 4096},
	)
	b, err := chromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "partition.assign" || e.Cat != "partition" || e.Ph != "X" || e.Ts != 1000 || e.Dur != 8000 || e.Args["arg"] != "HDRF" {
		t.Errorf("event = %+v", e)
	}
}
