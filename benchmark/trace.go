package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from the benchmark's own files only — product code carries no
// instrumentation — so a span's name is the layer (the package name) plus
// the operation, e.g. "graph.load" or "service.lookup".
type span struct {
	Name   string
	Arg    string        // strategy, file format, … ("" when there is none)
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int32 // index into the tracer's spans, −1 for a root
	Pass   int32
	Tid    int32  // client id for service traffic, 0 for batch passes
	Alloc  uint64 // heap bytes allocated inside the span (batch spans only)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the part of the name before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. One tracer belongs to
// one goroutine; service clients each own theirs and the runs are merged
// afterwards. A nil *tracer is the untraced run: do just calls fn.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	pass  int32
	tid   int32
	heap  *allocMeter // nil: spans do not read the allocation counter
}

func newTracer(epoch time.Time, tid int32, allocs bool) *tracer {
	t := &tracer{epoch: epoch, tid: tid}
	if allocs {
		t.heap = newAllocMeter()
	}
	return t
}

// allocMeter reads the runtime's count of heap bytes allocated so far,
// without stopping the world. A nil meter reads 0.
type allocMeter struct{ sample []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (m *allocMeter) bytes() uint64 {
	if m == nil {
		return 0
	}
	metrics.Read(m.sample)
	return m.sample[0].Value.Uint64()
}

func (t *tracer) begin(name, arg string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Arg: arg, Parent: parent, Pass: t.pass, Tid: t.tid, Alloc: t.heap.bytes()})
	t.stack = append(t.stack, id)
	t.spans[id].Start = time.Since(t.epoch)
	return id
}

func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	s.Alloc = t.heap.bytes() - s.Alloc
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span; on a nil tracer it only runs fn.
func (t *tracer) do(name, arg string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.begin(name, arg)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// passTotals sums the self times of the spans keep accepts, per pass, and
// returns one total per pass, in pass order. Spans outside every pass
// (pass < 0: the traced run's extras) do not count.
func passTotals(spans []span, keep func(span) bool) []float64 {
	self := selfTimes(spans)
	byPass := map[int32]float64{}
	maxPass := int32(-1)
	for i, s := range spans {
		if s.Pass > maxPass {
			maxPass = s.Pass
		}
		if keep(s) {
			byPass[s.Pass] += self[i].Seconds()
		}
	}
	out := make([]float64, 0, maxPass+1)
	for p := int32(0); p <= maxPass; p++ {
		out = append(out, byPass[p])
	}
	return out
}

// spanTotals sums, per pass, the whole duration of the spans with this
// name and argument, and returns one total per pass that has any.
func spanTotals(spans []span, name, arg string) []float64 {
	byPass := map[int32]float64{}
	for _, s := range spans {
		if s.Name == name && s.Arg == arg {
			byPass[s.Pass] += s.dur().Seconds()
		}
	}
	out := make([]float64, 0, len(byPass))
	for _, v := range byPass {
		out = append(out, v)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func chromeTrace(spans []span) ([]byte, error) {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		args := map[string]any{"pass": s.Pass, "parent": s.Parent}
		if s.Arg != "" {
			args["arg"] = s.Arg
		}
		if s.Alloc != 0 {
			args["alloc_bytes"] = s.Alloc
		}
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid, Args: args,
		}
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeChromeTrace(path string, spans []span) error {
	b, err := chromeTrace(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
