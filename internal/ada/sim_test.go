package ada

import (
	"testing"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/explore/exploretest"
	"gem/internal/lang"
	"gem/internal/legal"
)

// serverProgram: a server task accepting Put(v) and storing it; a client
// calling Put(42).
func serverProgram() *Program {
	return &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Put"},
			Vars:    []string{"stored"},
			Body: []Stmt{
				Accept{Entry: "Put", Param: "v", Body: []Stmt{
					Assign{Var: "stored", E: lang.VarRef("v")},
				}},
			},
		},
		{
			Name: "client",
			Body: []Stmt{
				EntryCall{Task: "server", Entry: "Put", Arg: lang.IntLit(42)},
				Op{Class: "Done"},
			},
		},
	}}
}

// finalValue reads task's variable v's final value off c: the newval of
// the last Assign at its element, which every assignment emits.
func finalValue(c *core.Computation, task, v string) int64 {
	val, _ := exploretest.Last(c, core.Ref(VarElement(task, v), "Assign"), "newval")
	return val
}

func TestRendezvousBasics(t *testing.T) {
	runs, truncated, err := explore.Collect(ExploreStream, serverProgram(), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) != 1 {
		t.Fatalf("got %d runs (truncated=%v), want 1", len(runs), truncated)
	}
	r := runs[0]
	if r.Deadlock {
		t.Fatal("rendezvous must complete")
	}
	if stored := finalValue(r.Comp, "server", "stored"); stored != 42 {
		t.Errorf("stored = %d, want 42", stored)
	}
	c := r.Comp
	call := c.EventsOf(core.Ref("client", "Call"))
	start := c.EventsOf(core.Ref(EntryElement("server", "Put"), "AcceptStart"))
	end := c.EventsOf(core.Ref(EntryElement("server", "Put"), "AcceptEnd"))
	ret := c.EventsOf(core.Ref("client", "Return"))
	done := c.EventsOf(core.Ref("client", "Done"))
	if len(call) != 1 || len(start) != 1 || len(end) != 1 || len(ret) != 1 || len(done) != 1 {
		t.Fatalf("events missing:\n%s", c)
	}
	// Extended rendezvous ordering: Call => AcceptStart => body =>
	// AcceptEnd => Return => Done.
	if !c.EnablesDirect(call[0], start[0]) {
		t.Error("Call must enable AcceptStart")
	}
	if !c.Temporal(start[0], end[0]) || !c.Temporal(end[0], ret[0]) || !c.Temporal(ret[0], done[0]) {
		t.Error("rendezvous ordering broken")
	}
	// Argument rides on both Call and AcceptStart.
	callV, _ := c.Event(call[0]).Params().Get("v")
	startV, _ := c.Event(start[0]).Params().Get("v")
	if callV != core.Int(42) || startV != core.Int(42) {
		t.Error("argument transfer broken")
	}
}

// TestAdaSpecLegality: generated computations satisfy the ADA primitive
// spec (experiment E5, ADA leg).
func TestAdaSpecLegality(t *testing.T) {
	prog := serverProgram()
	s := Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("generated computation violates ADA spec: %v\n%s", res.Error(), r.Comp)
		}
	}
}

func TestReplyCarriesResult(t *testing.T) {
	prog := &Program{Tasks: []Task{
		{
			Name:    "oracle",
			Entries: []string{"Ask"},
			Body: []Stmt{
				Accept{Entry: "Ask", Param: "q", Body: []Stmt{
					Reply{E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("q"), R: lang.IntLit(1)}},
				}},
			},
		},
		{
			Name: "asker",
			Body: []Stmt{EntryCall{Task: "oracle", Entry: "Ask", Arg: lang.IntLit(6)}},
		},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ret := runs[0].Comp.EventsOf(core.Ref("asker", "Return"))
	if got, _ := runs[0].Comp.Event(ret[0]).Params().Get("result"); got != core.Int(7) {
		t.Errorf("result = %v, want 7", got)
	}
}

func TestSelectTakesReadyAlternative(t *testing.T) {
	// Server selects between Get and Put; only a Put caller exists.
	prog := &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Put", "Get"},
			Vars:    []string{"x"},
			Body: []Stmt{
				Select{Alts: []SelectAlt{
					{Accept: Accept{Entry: "Put", Param: "v", Body: []Stmt{Assign{Var: "x", E: lang.VarRef("v")}}}},
					{Accept: Accept{Entry: "Get", Body: []Stmt{Reply{E: lang.VarRef("x")}}}},
				}},
			},
		},
		{
			Name: "writer",
			Body: []Stmt{EntryCall{Task: "server", Entry: "Put", Arg: lang.IntLit(9)}},
		},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if runs[0].Deadlock {
		t.Fatal("select must take the ready Put")
	}
	if x := finalValue(runs[0].Comp, "server", "x"); x != 9 {
		t.Errorf("x = %d, want 9", x)
	}
}

func TestSelectGuards(t *testing.T) {
	// Guard closes the Put alternative; only else is available.
	prog := &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Put"},
			Vars:    []string{"full"},
			Body: []Stmt{
				Assign{Var: "full", E: lang.IntLit(1)},
				Select{
					Alts: []SelectAlt{
						{Guard: lang.Bin{Op: lang.OpEq, L: lang.VarRef("full"), R: lang.IntLit(0)},
							Accept: Accept{Entry: "Put"}},
					},
					Else: []Stmt{Op{Class: "Refused"}},
				},
			},
		},
		{
			Name: "writer",
			Body: []Stmt{Op{Class: "Idle"}},
		},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if len(r.Comp.EventsOf(core.Ref("server", "Refused"))) != 1 {
			t.Error("closed guard must fall through to else")
		}
	}
}

func TestSelectElseOnlyWhenNothingReady(t *testing.T) {
	// A caller is queued before the select runs in some schedules; in
	// those, the accept must win over else.
	prog := &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Ping"},
			Body: []Stmt{
				Op{Class: "Prep"},
				Select{
					Alts: []SelectAlt{{Accept: Accept{Entry: "Ping"}}},
					Else: []Stmt{Op{Class: "NoCaller"}},
				},
			},
		},
		{
			Name: "caller",
			Body: []Stmt{EntryCall{Task: "server", Entry: "Ping"}},
		},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	accepted, refused := 0, 0
	for _, r := range runs {
		if len(r.Comp.EventsOf(core.Ref(EntryElement("server", "Ping"), "AcceptStart"))) == 1 {
			accepted++
		}
		if len(r.Comp.EventsOf(core.Ref("server", "NoCaller"))) == 1 {
			refused++
			if !r.Deadlock {
				t.Error("else-branch leaves the caller blocked forever: deadlock")
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Errorf("expected both outcomes, got accepted=%d refused=%d", accepted, refused)
	}
}

func TestTwoCallersFIFO(t *testing.T) {
	prog := &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Put"},
			Vars:    []string{"last"},
			Body: []Stmt{
				Repeat{N: 2, Body: []Stmt{
					Accept{Entry: "Put", Param: "v", Body: []Stmt{Assign{Var: "last", E: lang.VarRef("v")}}},
				}},
			},
		},
		{Name: "a", Body: []Stmt{EntryCall{Task: "server", Entry: "Put", Arg: lang.IntLit(1)}}},
		{Name: "b", Body: []Stmt{EntryCall{Task: "server", Entry: "Put", Arg: lang.IntLit(2)}}},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Error("both callers must be served")
		}
		if last := finalValue(r.Comp, "server", "last"); last != 1 && last != 2 {
			t.Errorf("last = %d", last)
		}
	}
	if len(runs) != 2 {
		t.Errorf("got %d runs, want 2 (two arrival orders)", len(runs))
	}
}

func TestDeadlockNoAccept(t *testing.T) {
	prog := &Program{Tasks: []Task{
		{Name: "server", Entries: []string{"Ping"}, Body: []Stmt{Op{Class: "Busy"}}},
		{Name: "caller", Body: []Stmt{EntryCall{Task: "server", Entry: "Ping"}}},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Deadlock {
		t.Fatal("unserved caller must deadlock")
	}
}

func TestValidationErrors(t *testing.T) {
	bad1 := &Program{Tasks: []Task{
		{Name: "a", Body: []Stmt{EntryCall{Task: "ghost", Entry: "X"}}},
	}}
	if _, _, err := explore.Collect(ExploreStream, bad1, ExploreOptions{}); err == nil {
		t.Error("unknown task must be rejected")
	}
	bad2 := &Program{Tasks: []Task{
		{Name: "a", Entries: []string{"X"}, Body: nil},
		{Name: "b", Body: []Stmt{EntryCall{Task: "a", Entry: "Y"}}},
	}}
	if _, _, err := explore.Collect(ExploreStream, bad2, ExploreOptions{}); err == nil {
		t.Error("unknown entry must be rejected")
	}
	bad3 := &Program{Tasks: []Task{
		{Name: "a", Body: []Stmt{Accept{Entry: "Undeclared"}}},
	}}
	if _, _, err := explore.Collect(ExploreStream, bad3, ExploreOptions{}); err == nil {
		t.Error("undeclared accept entry must be rejected")
	}
	bad4 := &Program{Tasks: []Task{{Name: "x"}, {Name: "x"}}}
	if _, _, err := explore.Collect(ExploreStream, bad4, ExploreOptions{}); err == nil {
		t.Error("duplicate task names must be rejected")
	}
	bad5 := &Program{Tasks: []Task{
		{Name: "a", Body: []Stmt{Reply{E: lang.IntLit(1)}}},
	}}
	if _, _, err := explore.Collect(ExploreStream, bad5, ExploreOptions{}); err == nil {
		t.Error("Reply outside rendezvous must be rejected")
	}
}

func TestNestedAccept(t *testing.T) {
	// Rendezvous within rendezvous: server accepts Outer, and during it
	// accepts Inner from a second client.
	prog := &Program{Tasks: []Task{
		{
			Name:    "server",
			Entries: []string{"Outer", "Inner"},
			Vars:    []string{"sum"},
			Body: []Stmt{
				Accept{Entry: "Outer", Param: "a", Body: []Stmt{
					Accept{Entry: "Inner", Param: "b", Body: []Stmt{
						Assign{Var: "sum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("a"), R: lang.VarRef("b")}},
					}},
				}},
			},
		},
		{Name: "c1", Body: []Stmt{EntryCall{Task: "server", Entry: "Outer", Arg: lang.IntLit(10)}}},
		{Name: "c2", Body: []Stmt{EntryCall{Task: "server", Entry: "Inner", Arg: lang.IntLit(5)}}},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Fatal("nested rendezvous must complete")
		}
		if sum := finalValue(r.Comp, "server", "sum"); sum != 15 {
			t.Errorf("sum = %d, want 15", sum)
		}
	}
}

func TestSpecRefutesForgedAccept(t *testing.T) {
	// An AcceptStart with no enabling Call violates the prerequisite.
	prog := serverProgram()
	s := Spec(prog)
	b := core.NewBuilder()
	b.Event(EntryElement("server", "Put"), "AcceptStart", core.NewParams(core.P("v", core.Int(1))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("AcceptStart without a Call must be illegal")
	}
}

func TestSpecRefutesCorruptedArgument(t *testing.T) {
	prog := serverProgram()
	s := Spec(prog)
	b := core.NewBuilder()
	call := b.Event("client", "Call", core.NewParams(
		core.P("task", core.Str("server")),
		core.P("entry", core.Str("Put")),
		core.P("v", core.Int(42)),
	))
	acc := b.Event(EntryElement("server", "Put"), "AcceptStart", core.NewParams(core.P("v", core.Int(7))))
	b.Enable(call, acc)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("corrupted rendezvous argument must be illegal")
	}
}

func TestExternalSharedElement(t *testing.T) {
	// A writer task assigns an external cell; a reader task reads it
	// after a rendezvous that orders the two accesses.
	prog := &Program{Tasks: []Task{
		{
			Name:    "writer",
			Entries: []string{"Done"},
			Body: []Stmt{
				Op{Element: "shared", Class: "Assign", Params: map[string]lang.Expr{"newval": lang.IntLit(5)}},
				Accept{Entry: "Done"},
			},
		},
		{
			Name: "reader",
			Body: []Stmt{
				EntryCall{Task: "writer", Entry: "Done"},
				Op{Element: "shared", Class: "Getval"},
			},
		},
	}}
	runs, _, err := explore.Collect(ExploreStream, prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Fatal("must complete")
		}
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("external-element run illegal: %v", res.Error())
		}
		gets := r.Comp.EventsOf(core.Ref("shared", "Getval"))
		if len(gets) != 1 {
			t.Fatalf("gets = %d", len(gets))
		}
		if got, _ := r.Comp.Event(gets[0]).Params().Get("oldval"); got != core.Int(5) {
			t.Errorf("read %v, want 5 (ordered by the rendezvous)", got)
		}
	}
}

func TestAdaExprCoverage(t *testing.T) {
	task := &taskState{vars: map[string]int64{"x": 3, "y": 5}, args: map[string]int64{"y": 1}}
	if got := (lang.Bin{Op: lang.OpAdd, L: lang.VarRef("x"), R: lang.VarRef("y")}).Eval(task); got != 4 {
		t.Errorf("x + y = %d, want 4 (parameters shadow variables)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("undefined name should panic")
		}
	}()
	lang.VarRef("ghost").Eval(task)
}
