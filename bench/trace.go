package main

import (
	"encoding/json"
	"os"
	"time"

	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/verify"
)

// traceSpan is one harness span: a timed call into a layer's public
// function, made from this package. Spans inside the program are the
// obs collector's; they are folded into totals, not kept.
type traceSpan struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start"`  // wall clock, unix ns
	Dur    int64  `json:"dur"`    // ns
}

// tracer records one traced request's spans and per-layer values. A nil
// *tracer records nothing and only calls through, so untraced requests
// run the same code.
type tracer struct {
	spans  []traceSpan
	open   []int
	layers map[string]float64
}

func newTracer() *tracer { return &tracer{layers: make(map[string]float64)} }

// span runs fn as a span named name, nested in the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, traceSpan{Name: name, Parent: parent, Start: time.Now().UnixNano()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Dur = time.Now().UnixNano() - t.spans[id].Start
}

func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.layers[name] = v
	}
}

// total is the summed duration of the spans named name, in ms.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Dur
		}
	}
	return float64(ns) / 1e6
}

// self is the summed self time of the spans named name — each span's
// duration minus the part its direct children cover — in ms.
func (t *tracer) self(name string) float64 {
	var ns int64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		ns += s.Dur
		for _, c := range t.spans[i+1:] {
			if c.Parent == i {
				ns -= c.Dur
			}
		}
	}
	return float64(ns) / 1e6
}

// first is the duration of the first span named name, in ms.
func (t *tracer) first(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name {
			return float64(s.Dur) / 1e6
		}
	}
	return 0
}

// covered is the time the top-level harness spans account for, in ns.
func covered(spans []traceSpan) int64 {
	var ns int64
	for _, s := range spans {
		if s.Parent < 0 {
			ns += s.Dur
		}
	}
	return ns
}

// scenario wraps a matrix cell's Setup and Stream func fields in spans.
// Exploration self time is time inside Stream minus time inside its
// yield, which hands each computation to the checking pipeline.
func (t *tracer) scenario(s check.Scenario) check.Scenario {
	setup, stream := s.Setup, s.Stream
	name := "explore." + string(s.Language)
	s.Setup = func() (problem *spec.Spec, corr verify.Correspondence, err error) {
		t.span("check.setup", func() { problem, corr, err = setup() })
		return problem, corr, err
	}
	s.Stream = func(yield func(*core.Computation) bool) (truncated bool, err error) {
		t.span(name, func() {
			truncated, err = stream(func(c *core.Computation) bool {
				t.layers["explore.runs"]++
				var more bool
				t.span("explore.yield", func() { more = yield(c) })
				return more
			})
		})
		return truncated, err
	}
	return s
}

// The obs spans and counters the engines, store and mutation campaign
// record. Engine span totals are summed by name: lattice.build is opened
// without a parent, so these are totals, not self times.
var (
	obsSpans = []string{
		"engine.histories", "engine.lattice", "engine.lattice.cex", "engine.seq",
		"lattice.build", "parse", "lint.analyze", "analyze.deep", "store.lookup", "store.sat",
		"mutate.gen", "mutate.check", "mutate.shrink",
	}
	obsCounters = []string{
		"engine.lattice.pass", "engine.lattice.cex", "engine.lattice.fallback",
		"sequences.enumerated", "sat.checks", "lattice.histories",
	}
)

// foldObs adds the obs collector's span totals, counters and the largest
// lattice built to the layer values.
func (t *tracer) foldObs(p *obs.Profile) {
	totals := make(map[string]time.Duration)
	for _, s := range p.Spans {
		totals[s.Name] += s.Dur
	}
	for _, name := range obsSpans {
		t.layers[name+"_ms"] = float64(totals[name]) / 1e6
	}
	for _, name := range obsCounters {
		t.layers[name] = float64(p.Counters[name])
	}
	t.layers["lattice.max_histories"] = float64(p.Gauges["lattice.max_histories"])
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the first span
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// writeTrace writes every traced request's spans, one track per request,
// as a Chrome trace-event file (chrome://tracing, Perfetto).
func writeTrace(path string, requests [][]traceSpan) error {
	var epoch int64
	for _, spans := range requests {
		for _, s := range spans {
			if epoch == 0 || s.Start < epoch {
				epoch = s.Start
			}
		}
	}
	events := []chromeEvent{}
	for i, spans := range requests {
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Ts: float64(s.Start-epoch) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: i + 1,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
