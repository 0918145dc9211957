package verify

import (
	"context"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/store"
)

// tinyProblem: users ping a service; problem events Ping -> Served.
func tinyProblem(t *testing.T) *spec.Spec {
	t.Helper()
	s := spec.New("tiny")
	s.AddElement(&spec.ElementDecl{
		Name:   "u1",
		Events: []spec.EventClassDecl{{Name: "Ping", Params: []spec.ParamDecl{{Name: "v", Type: "INTEGER"}}}},
	})
	s.AddElement(&spec.ElementDecl{
		Name:   "svc",
		Events: []spec.EventClassDecl{{Name: "Served", Params: []spec.ParamDecl{{Name: "v", Type: "INTEGER"}}}},
		Restrictions: []spec.Restriction{{
			Name: "served-value",
			F: logic.ForAll{Var: "p", Ref: core.Ref("u1", "Ping"),
				Body: logic.ForAll{Var: "s", Ref: core.Ref("svc", "Served"),
					Body: logic.Implies{
						If:   logic.Enables{X: "p", Y: "s"},
						Then: logic.ParamCmp{X: "p", P: "v", Op: logic.OpEq, Y: "s", Q: "v"},
					},
				},
			},
		}},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyProgram builds a program computation: process element "u1" emits
// Request(v) then later Done(v); an internal "noise" event sits between.
func tinyProgram(t *testing.T, v1, v2 int64) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	req := b.Event("u1", "Request", core.NewParams(core.P("v", core.Int(v1)), core.P("proc", core.Str("u1"))))
	noise := b.Event("internal", "Tick", core.Params{})
	done := b.Event("worker", "Done", core.NewParams(core.P("v", core.Int(v2)), core.P("proc", core.Str("u1"))))
	b.Enable(req, noise)
	b.Enable(noise, done)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyCorr() Correspondence {
	return Correspondence{Rules: []Rule{
		{Match: core.Ref("u1", "Request"), Element: "%s", Class: "Ping",
			KeyParam: "@element", Chain: "ping", Stage: 0,
			CopyParams: map[string]string{"v": "v"}},
		{Match: core.Ref("worker", "Done"), Element: "svc", Class: "Served",
			KeyParam: "proc", Chain: "ping", Stage: 1,
			CopyParams: map[string]string{"v": "v"}},
	}}
}

func TestProjectBasics(t *testing.T) {
	c := tinyProgram(t, 5, 5)
	proj, err := Project(c, tinyCorr())
	if err != nil {
		t.Fatal(err)
	}
	if proj.Comp.NumEvents() != 2 {
		t.Fatalf("projection has %d events, want 2 (noise dropped)", proj.Comp.NumEvents())
	}
	ping := proj.Comp.EventsOf(core.Ref("u1", "Ping"))
	served := proj.Comp.EventsOf(core.Ref("svc", "Served"))
	if len(ping) != 1 || len(served) != 1 {
		t.Fatalf("projected classes wrong:\n%s", proj.Comp)
	}
	if !proj.Comp.EnablesDirect(ping[0], served[0]) {
		t.Error("chain stages must be wired with an enable edge")
	}
	if v, _ := proj.Comp.Event(ping[0]).Params().Get("v"); v != core.Int(5) {
		t.Error("CopyParams failed")
	}
	// Origin maps back to program events.
	if orig := proj.Origin[ping[0]]; c.Event(orig).Class() != "Request" {
		t.Error("Origin mapping wrong")
	}
}

func TestCheckSatAndRefute(t *testing.T) {
	problem := tinyProblem(t)
	good := Check(problem, tinyProgram(t, 5, 5), tinyCorr(), logic.CheckOptions{})
	if !good.Sat() {
		t.Fatalf("faithful program must satisfy: %v", good.Error())
	}
	if good.Error() != nil {
		t.Error("Error must be nil on sat")
	}
	bad := Check(problem, tinyProgram(t, 5, 9), tinyCorr(), logic.CheckOptions{})
	if bad.Sat() {
		t.Fatal("value-corrupting program must be refuted")
	}
	if bad.Error() == nil {
		t.Error("Error must describe the refutation")
	}
}

// The store's spans open under the caller's context, so a trace shows
// each lookup inside the check that made it rather than as a root of its
// own. The checks run twice against one read-write store: the first
// pass misses and writes, the second hits the sat record; the failing
// computation misses the sat layer on both passes and reaches the
// verdict layer.
func TestStoreSpansNestUnderCaller(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	problem := tinyProblem(t)
	obs.Enable()
	defer obs.Disable()
	const root = "caller"
	ctx, sp := obs.StartSpan(context.Background(), root)
	for pass := 0; pass < 2; pass++ {
		for _, c := range []*core.Computation{tinyProgram(t, 5, 5), tinyProgram(t, 5, 9)} {
			Check(problem, c, tinyCorr(), logic.CheckOptions{Ctx: ctx, Cache: st})
		}
	}
	sp.End()

	spans := obs.Snapshot().Spans
	parent := make(map[string]string) // each span name has one parent in this run
	tid := int32(-1)
	for _, s := range spans {
		parent[s.Name] = s.Parent
		if s.Name == root {
			tid = s.Tid
		}
	}
	under := func(s obs.SpanRec) bool {
		for p, hops := s.Parent, 0; p != "" && hops < len(spans); p, hops = parent[p], hops+1 {
			if p == root {
				return true
			}
		}
		return false
	}
	seen := map[string]int{}
	for _, s := range spans {
		if s.Name != "store.sat" && s.Name != "store.lookup" {
			continue
		}
		seen[s.Name]++
		if !under(s) || s.Tid != tid {
			t.Errorf("%s span has parent %q on track %d, want it under %q on track %d", s.Name, s.Parent, s.Tid, root, tid)
		}
	}
	if seen["store.sat"] != 4 || seen["store.lookup"] == 0 {
		t.Errorf("store spans seen %v, want 4 store.sat and at least one store.lookup", seen)
	}
}

func TestCheckAll(t *testing.T) {
	problem := tinyProblem(t)
	comps := []*core.Computation{
		tinyProgram(t, 1, 1),
		tinyProgram(t, 2, 9),
		tinyProgram(t, 3, 3),
	}
	idx, res := CheckAll(problem, comps, tinyCorr(), logic.CheckOptions{})
	if idx != 1 || res.Sat() {
		t.Fatalf("CheckAll = (%d, sat=%v), want failure at 1", idx, res.Sat())
	}
	idx, _ = CheckAll(problem, comps[:1], tinyCorr(), logic.CheckOptions{})
	if idx != -1 {
		t.Fatalf("all-pass CheckAll returned %d", idx)
	}
}

func TestProjectErrors(t *testing.T) {
	t.Run("no matches", func(t *testing.T) {
		c := tinyProgram(t, 1, 1)
		_, err := Project(c, Correspondence{Rules: []Rule{
			{Match: core.Ref("ghost", "X"), Element: "e", Class: "C"},
		}})
		if err == nil || !strings.Contains(err.Error(), "no significant events") {
			t.Errorf("want no-matches error, got %v", err)
		}
	})
	t.Run("missing key param", func(t *testing.T) {
		c := tinyProgram(t, 1, 1)
		_, err := Project(c, Correspondence{Rules: []Rule{
			{Match: core.Ref("u1", "Request"), Element: "e", Class: "C", KeyParam: "nope"},
		}})
		if err == nil || !strings.Contains(err.Error(), "key parameter") {
			t.Errorf("want key-param error, got %v", err)
		}
	})
	t.Run("concurrent events on one element", func(t *testing.T) {
		b := core.NewBuilder()
		b.Event("a", "X", core.Params{})
		b.Event("b", "X", core.Params{})
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Project(c, Correspondence{Rules: []Rule{
			{Match: core.Ref("", "X"), Element: "merged", Class: "C"},
		}})
		if err == nil || !strings.Contains(err.Error(), "concurrent") {
			t.Errorf("want concurrency error, got %v", err)
		}
	})
	t.Run("stage order violation", func(t *testing.T) {
		b := core.NewBuilder()
		done := b.Event("worker", "Done", core.NewParams(core.P("proc", core.Str("u1"))))
		req := b.Event("u1", "Request", core.NewParams(core.P("proc", core.Str("u1"))))
		b.Enable(done, req) // reversed causality
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Project(c, tinyCorr())
		if err == nil || !strings.Contains(err.Error(), "precedes stage") {
			t.Errorf("want stage-order error, got %v", err)
		}
	})
	t.Run("missing head stage", func(t *testing.T) {
		b := core.NewBuilder()
		b.Event("worker", "Done", core.NewParams(core.P("proc", core.Str("u1"))))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Project(c, tinyCorr())
		if err == nil || !strings.Contains(err.Error(), "stage") {
			t.Errorf("want stage-count error, got %v", err)
		}
	})
	t.Run("prefix transaction accepted", func(t *testing.T) {
		// A transaction still in flight (later stages absent) projects
		// fine — it is simply an incomplete chain.
		b := core.NewBuilder()
		b.Event("u1", "Request", core.NewParams(core.P("proc", core.Str("u1"))))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		proj, err := Project(c, tinyCorr())
		if err != nil {
			t.Fatalf("prefix transaction should project: %v", err)
		}
		if proj.Comp.NumEvents() != 1 {
			t.Errorf("projection = %d events", proj.Comp.NumEvents())
		}
	})
}

func TestProjectRelaxedStage(t *testing.T) {
	// Two concurrent events in one chain: forbidden normally, allowed
	// with Relaxed (but never in inverse order).
	b := core.NewBuilder()
	b.Event("u1", "Request", core.NewParams(core.P("proc", core.Str("u1"))))
	b.Event("worker", "Done", core.NewParams(core.P("proc", core.Str("u1"))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr := tinyCorr()
	if _, err := Project(c, corr); err == nil {
		t.Fatal("concurrent chain stages must be rejected without Relaxed")
	}
	corr.Rules[1].Relaxed = true
	proj, err := Project(c, corr)
	if err != nil {
		t.Fatalf("Relaxed should admit the concurrent pair: %v", err)
	}
	ping := proj.Comp.EventsOf(core.Ref("u1", "Ping"))
	served := proj.Comp.EventsOf(core.Ref("svc", "Served"))
	if !proj.Comp.EnablesDirect(ping[0], served[0]) {
		t.Error("relaxed stage still wires the chain edge")
	}
}

func TestProjectRepeatedTransactions(t *testing.T) {
	// One process runs the chain twice; occurrence pairing must produce
	// two transactions.
	b := core.NewBuilder()
	r1 := b.Event("u1", "Request", core.NewParams(core.P("v", core.Int(1)), core.P("proc", core.Str("u1"))))
	d1 := b.Event("worker", "Done", core.NewParams(core.P("v", core.Int(1)), core.P("proc", core.Str("u1"))))
	r2 := b.Event("u1", "Request", core.NewParams(core.P("v", core.Int(2)), core.P("proc", core.Str("u1"))))
	d2 := b.Event("worker", "Done", core.NewParams(core.P("v", core.Int(2)), core.P("proc", core.Str("u1"))))
	b.Enable(r1, d1)
	b.Enable(d1, r2)
	b.Enable(r2, d2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Project(c, tinyCorr())
	if err != nil {
		t.Fatal(err)
	}
	pings := proj.Comp.EventsOf(core.Ref("u1", "Ping"))
	serveds := proj.Comp.EventsOf(core.Ref("svc", "Served"))
	if len(pings) != 2 || len(serveds) != 2 {
		t.Fatalf("projection wrong:\n%s", proj.Comp)
	}
	if !proj.Comp.EnablesDirect(pings[0], serveds[0]) || !proj.Comp.EnablesDirect(pings[1], serveds[1]) {
		t.Error("occurrence pairing must wire tx k's stages together")
	}
	if proj.Comp.EnablesDirect(pings[0], serveds[1]) {
		t.Error("stages of different transactions must not be wired")
	}
}

func TestProjectElementTemplate(t *testing.T) {
	c := tinyProgram(t, 5, 5)
	corr := tinyCorr()
	proj, err := Project(c, corr)
	if err != nil {
		t.Fatal(err)
	}
	// %s in rule 0 expanded to the element name u1.
	if got := proj.Comp.Elements(); got[1] != "u1" {
		t.Errorf("elements = %v", got)
	}
}

func TestWhereFilter(t *testing.T) {
	b := core.NewBuilder()
	b.Event("u1", "Request", core.NewParams(core.P("v", core.Int(1)), core.P("kind", core.Str("ping")), core.P("proc", core.Str("u1"))))
	b.Event("u1", "Request", core.NewParams(core.P("v", core.Int(2)), core.P("kind", core.Str("other")), core.P("proc", core.Str("u1"))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr := Correspondence{Rules: []Rule{
		{Match: core.Ref("u1", "Request"), Where: core.NewParams(core.P("kind", core.Str("ping"))),
			Element: "u1", Class: "Ping", Chain: "ping", Stage: 0},
	}}
	proj, err := Project(c, corr)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Comp.NumEvents() != 1 {
		t.Fatalf("Where filter failed: %d events", proj.Comp.NumEvents())
	}
}

// TestProjectFollowsTemporalOrderNotIDs: a computation built by hand
// need not number its events in temporal order. Here p3.Go (id 2)
// enables p1.Go (id 0), both map to problem element x, and p2.Go (id 1)
// maps elsewhere, concurrent with both. x's element order must follow
// the program's temporal order, p3.Go first.
func TestProjectFollowsTemporalOrderNotIDs(t *testing.T) {
	b := core.NewBuilder()
	p1 := b.Event("p1", "Go", core.Params{})
	b.Event("p2", "Go", core.Params{})
	p3 := b.Event("p3", "Go", core.Params{})
	b.Enable(p3, p1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr := Correspondence{Rules: []Rule{
		{Match: core.Ref("p1", "Go"), Element: "x", Class: "E", KeyParam: "@element", Chain: "x"},
		{Match: core.Ref("p2", "Go"), Element: "y", Class: "F", KeyParam: "@element", Chain: "y"},
		{Match: core.Ref("p3", "Go"), Element: "x", Class: "E", KeyParam: "@element", Chain: "x"},
	}}
	proj, err := Project(c, corr)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.EventID
	for _, id := range proj.Comp.EventsAt("x") {
		got = append(got, proj.Origin[id])
	}
	if len(got) != 2 || got[0] != p3 || got[1] != p1 {
		t.Fatalf("x's events project program events %v, want [%d %d] (p3.Go precedes p1.Go)", got, p3, p1)
	}
}
