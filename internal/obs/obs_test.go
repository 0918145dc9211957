package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Disable()
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != (Span{}) {
		t.Error("disabled StartSpan must return the zero Span")
	}
	sp.End() // must not panic or record
	Count("c", 1)
	SetMax("g", 7)
	_ = ctx
	Enable()
	defer Disable()
	if p := Snapshot(); len(p.Spans) != 0 || len(p.Counters) != 0 || len(p.Gauges) != 0 {
		t.Errorf("disabled-phase activity leaked into the snapshot: %+v", p)
	}
}

// TestDisabledAllocationFree pins the tentpole claim: with the
// collector off, spans and counters allocate nothing.
func TestDisabledAllocationFree(t *testing.T) {
	Disable()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "hot")
		Count("n", 1)
		SetMax("m", 3)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %v per op, want 0", allocs)
	}
}

func TestSpanNestingAndCounters(t *testing.T) {
	Enable()
	defer Disable()
	ctx, root := StartSpan(nil, "root")
	ctx2, child := StartSpan(ctx, "child")
	_, grand := StartSpan(ctx2, "grand")
	grand.End()
	child.End()
	root.End()
	Count("hits", 2)
	Count("hits", 3)
	SetMax("size", 10)
	SetMax("size", 4)

	p := Snapshot()
	if len(p.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(p.Spans))
	}
	byName := map[string]SpanRec{}
	for _, s := range p.Spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != "root" || byName["grand"].Parent != "child" {
		t.Errorf("parent chain wrong: %+v", p.Spans)
	}
	if byName["child"].Tid != byName["root"].Tid || byName["grand"].Tid != byName["root"].Tid {
		t.Errorf("children must inherit the root track: %+v", p.Spans)
	}
	if p.Counters["hits"] != 5 {
		t.Errorf("counter hits = %d, want 5", p.Counters["hits"])
	}
	if p.Gauges["size"] != 10 {
		t.Errorf("gauge size = %d, want 10 (high-water mark)", p.Gauges["size"])
	}
}

// TestTidRecycling checks concurrent roots get distinct tracks and that
// finished tracks are reused, keeping the trace readable.
func TestTidRecycling(t *testing.T) {
	Enable()
	defer Disable()
	_, a := StartSpan(nil, "a")
	_, b := StartSpan(nil, "b")
	if a.tid == b.tid {
		t.Fatal("concurrent roots must get distinct tids")
	}
	b.End()
	_, c := StartSpan(nil, "c")
	if c.tid != b.tid {
		t.Errorf("tid %d not recycled (got %d)", b.tid, c.tid)
	}
	c.End()
	a.End()
}

func TestConcurrentRecording(t *testing.T) {
	Enable()
	defer Disable()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ctx, sp := StartSpan(nil, "work")
				_, inner := StartSpan(ctx, "engine.seq")
				Count("ops", 1)
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	p := Snapshot()
	if got := p.Counters["ops"]; got != 800 {
		t.Errorf("ops = %d, want 800", got)
	}
	if len(p.Spans) != 1600 {
		t.Errorf("spans = %d, want 1600", len(p.Spans))
	}
}

func TestWriteTraceWellFormed(t *testing.T) {
	Enable()
	defer Disable()
	ctx, sp := StartSpan(nil, "restriction buf/cap")
	_, eng := StartSpan(ctx, "engine.lattice")
	time.Sleep(time.Millisecond)
	eng.End()
	sp.End()
	Count("lattice.histories", 12)

	var sb strings.Builder
	if err := WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, counters int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("span event lacks dur: %v", ev)
			}
		case "C":
			counters++
		}
	}
	if spans != 2 || counters != 1 {
		t.Errorf("got %d spans / %d counters, want 2 / 1", spans, counters)
	}
}

func TestWriteStatsDeterministicShape(t *testing.T) {
	Enable()
	defer Disable()
	for _, name := range []string{"restriction b/r2", "restriction a/r1"} {
		ctx, sp := StartSpan(nil, name)
		_, eng := StartSpan(ctx, "engine.seq")
		eng.End()
		sp.End()
	}
	Count("sat.checks", 3)
	SetMax("lattice.max_histories", 42)

	var one strings.Builder
	if err := WriteStats(&one); err != nil {
		t.Fatal(err)
	}
	out := one.String()
	for _, want := range []string{
		"== spans ==", "== per-restriction engine time ==", "== counters ==",
		"restriction a/r1", "engine.seq", "sat.checks", "lattice.max_histories",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// Name-sorted span table: a/r1 before b/r2.
	if strings.Index(out, "restriction a/r1") > strings.Index(out, "restriction b/r2") {
		t.Errorf("span rows not sorted by name:\n%s", out)
	}
}
