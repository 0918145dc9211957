package csp

import (
	"testing"

	"gem/internal/core"
	"gem/internal/explore/exploretest"
	"gem/internal/lang"
	"gem/internal/legal"
)

// pingProgram: P sends 42 to Q; Q receives and emits a Got event.
func pingProgram() *Program {
	return &Program{Processes: []Process{
		{Name: "P", Body: []Stmt{Send{To: "Q", E: lang.IntLit(42)}}},
		{Name: "Q", Vars: []string{"x"}, Body: []Stmt{
			Recv{From: "P", Var: "x"},
			Op{Class: "Got", Params: map[string]lang.Expr{"v": lang.VarRef("x")}},
		}},
	}}
}

func TestPingCommunication(t *testing.T) {
	runs, truncated, err := Explore(pingProgram(), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(runs) != 1 {
		t.Fatalf("got %d runs (truncated=%v), want 1", len(runs), truncated)
	}
	r := runs[0]
	if r.Deadlock {
		t.Fatal("ping must not deadlock")
	}
	c := r.Comp
	// 4 communication events + 1 local op.
	if c.NumEvents() != 5 {
		t.Fatalf("got %d events:\n%s", c.NumEvents(), c)
	}
	outReq := c.EventsOf(core.Ref(OutElement("P", "Q"), "Req"))
	inpReq := c.EventsOf(core.Ref(InpElement("Q", "P"), "Req"))
	outEnd := c.EventsOf(core.Ref(OutElement("P", "Q"), "End"))
	inpEnd := c.EventsOf(core.Ref(InpElement("Q", "P"), "End"))
	if len(outReq) != 1 || len(inpReq) != 1 || len(outEnd) != 1 || len(inpEnd) != 1 {
		t.Fatalf("communication events missing:\n%s", c)
	}
	// The paper's simultaneity: inp.req |> out.end <-> out.req |> inp.end.
	if !c.EnablesDirect(inpReq[0], outEnd[0]) || !c.EnablesDirect(outReq[0], inpEnd[0]) {
		t.Error("cross enables missing")
	}
	// Requests of the two processes are concurrent (no observable order).
	if !c.Concurrent(outReq[0], inpReq[0]) {
		t.Error("requests should be concurrent")
	}
	// The received value rides on inp.End.
	if got, _ := c.Event(inpEnd[0]).Params().Get("v"); got != core.Int(42) {
		t.Errorf("inp.End v = %v", got)
	}
	got := c.EventsOf(core.Ref("Q", "Got"))
	if len(got) != 1 {
		t.Fatalf("Got events = %v, want one:\n%s", got, c)
	}
	if v, _ := c.Event(got[0]).Params().Get("v"); v != core.Int(42) {
		t.Errorf("Got event wrong:\n%s", c)
	}
	// Q's last receive into x, the last communication at its input
	// element from P, leaves Q.x at the value it carried.
	if x, _ := exploretest.Last(c, core.Ref(InpElement("Q", "P"), "End"), "v"); x != 42 {
		t.Errorf("Q.x = %d, want 42", x)
	}
}

// TestCSPSpecLegality checks generated computations against the CSP
// primitive spec (experiment E5, CSP leg).
func TestCSPSpecLegality(t *testing.T) {
	prog := pingProgram()
	s := Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("generated computation violates CSP spec: %v\n%s", res.Error(), r.Comp)
		}
	}
}

func TestDeadlockBothSend(t *testing.T) {
	prog := &Program{Processes: []Process{
		{Name: "P", Body: []Stmt{Send{To: "Q", E: lang.IntLit(1)}}},
		{Name: "Q", Body: []Stmt{Send{To: "P", E: lang.IntLit(2)}}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Deadlock {
		t.Fatalf("two senders must deadlock, got %+v", runs)
	}
}

func TestAltSelectsReadyBranch(t *testing.T) {
	// R alternates over inputs from P and Q; both offer. Two selection
	// orders exist; both complete. With Repeat(2), R consumes both.
	prog := &Program{Processes: []Process{
		{Name: "P", Body: []Stmt{Send{To: "R", E: lang.IntLit(1)}}},
		{Name: "Q", Body: []Stmt{Send{To: "R", E: lang.IntLit(2)}}},
		{Name: "R", Vars: []string{"x", "sum"}, Body: []Stmt{
			Repeat{N: 2, Body: []Stmt{
				Alt{Branches: []Branch{
					{Comm: Recv{From: "P", Var: "x"},
						Body: []Stmt{Assign{Var: "sum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("sum"), R: lang.VarRef("x")}}}},
					{Comm: Recv{From: "Q", Var: "x"},
						Body: []Stmt{Assign{Var: "sum", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("sum"), R: lang.VarRef("x")}}}},
				}},
			}},
			Op{Class: "Sum", Params: map[string]lang.Expr{"sum": lang.VarRef("sum")}},
		}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs")
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Error("alt program must not deadlock")
		}
		if sum, ok := exploretest.Last(r.Comp, core.Ref("R", "Sum"), "sum"); !ok || sum != 3 {
			t.Errorf("R.sum = %d (reported: %v), want 3", sum, ok)
		}
	}
}

func TestAltBooleanGuards(t *testing.T) {
	prog := &Program{Processes: []Process{
		{Name: "P", Vars: []string{"x"}, Body: []Stmt{
			Assign{Var: "x", E: lang.IntLit(5)},
			Alt{Branches: []Branch{
				{Guard: lang.Bin{Op: lang.OpGt, L: lang.VarRef("x"), R: lang.IntLit(3)},
					Body: []Stmt{Op{Class: "Big"}}},
				{Guard: lang.Bin{Op: lang.OpLe, L: lang.VarRef("x"), R: lang.IntLit(3)},
					Body: []Stmt{Op{Class: "Small"}}},
			}},
		}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if len(runs[0].Comp.EventsOf(core.Ref("P", "Big"))) != 1 {
		t.Error("guarded branch Big must be taken")
	}
	if len(runs[0].Comp.EventsOf(core.Ref("P", "Small"))) != 0 {
		t.Error("false-guarded branch must not be taken")
	}
}

func TestAltAllGuardsFalseDeadlocks(t *testing.T) {
	prog := &Program{Processes: []Process{
		{Name: "P", Vars: []string{"x"}, Body: []Stmt{
			Alt{Branches: []Branch{
				{Guard: lang.Bin{Op: lang.OpGt, L: lang.VarRef("x"), R: lang.IntLit(0)}, Body: []Stmt{Op{Class: "Never"}}},
			}},
		}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Deadlock {
		t.Fatal("alt with no ready branch must deadlock")
	}
}

func TestRepeatUnrolls(t *testing.T) {
	prog := &Program{Processes: []Process{
		{Name: "P", Vars: []string{"i"}, Body: []Stmt{
			Repeat{N: 3, Body: []Stmt{
				Assign{Var: "i", E: lang.Bin{Op: lang.OpAdd, L: lang.VarRef("i"), R: lang.IntLit(1)}},
				Op{Class: "Tick", Params: map[string]lang.Expr{"i": lang.VarRef("i")}},
			}},
		}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	ticks := runs[0].Comp.EventsOf(core.Ref("P", "Tick"))
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	if i, _ := exploretest.Last(runs[0].Comp, core.Ref("P", "Tick"), "i"); i != 3 {
		t.Errorf("i = %d at the last Tick, want 3", i)
	}
	// Tick params must be 1, 2, 3 in element order.
	for k, id := range ticks {
		if got, _ := runs[0].Comp.Event(id).Params().Get("i"); got != core.Int(int64(k+1)) {
			t.Errorf("tick %d param = %v", k, got)
		}
	}
}

func TestUnknownPartnerRejected(t *testing.T) {
	prog := &Program{Processes: []Process{
		{Name: "P", Body: []Stmt{Send{To: "Ghost", E: lang.IntLit(1)}}},
	}}
	if _, _, err := Explore(prog, ExploreOptions{}); err == nil {
		t.Fatal("unknown partner must be rejected")
	}
	prog2 := &Program{Processes: []Process{
		{Name: "P", Body: []Stmt{Recv{From: "Ghost", Var: "x"}}},
	}}
	if _, _, err := Explore(prog2, ExploreOptions{}); err == nil {
		t.Fatal("unknown sender must be rejected")
	}
}

func TestDuplicateProcessNameRejected(t *testing.T) {
	prog := &Program{Processes: []Process{{Name: "P"}, {Name: "P"}}}
	if _, _, err := Explore(prog, ExploreOptions{}); err == nil {
		t.Fatal("duplicate names must be rejected")
	}
}

func TestValueCorruptionDetectedBySpec(t *testing.T) {
	// Hand-build a computation violating value transfer and check the
	// spec refutes it (failure injection for the CSP substrate).
	prog := pingProgram()
	s := Spec(prog)
	b := core.NewBuilder()
	or := b.Event(OutElement("P", "Q"), "Req", core.NewParams(core.P("v", core.Int(42))))
	ir := b.Event(InpElement("Q", "P"), "Req", core.Params{})
	oe := b.Event(OutElement("P", "Q"), "End", core.Params{})
	ie := b.Event(InpElement("Q", "P"), "End", core.NewParams(core.P("v", core.Int(7)))) // corrupted
	b.Enable(or, oe)
	b.Enable(ir, oe)
	b.Enable(or, ie)
	b.Enable(ir, ie)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("corrupted message value must be illegal")
	}
}

func TestMissingCrossEnableDetectedBySpec(t *testing.T) {
	prog := pingProgram()
	s := Spec(prog)
	b := core.NewBuilder()
	or := b.Event(OutElement("P", "Q"), "Req", core.NewParams(core.P("v", core.Int(42))))
	ir := b.Event(InpElement("Q", "P"), "Req", core.Params{})
	oe := b.Event(OutElement("P", "Q"), "End", core.Params{})
	ie := b.Event(InpElement("Q", "P"), "End", core.NewParams(core.P("v", core.Int(42))))
	b.Enable(or, oe) // missing ir |> oe: simultaneity broken
	b.Enable(or, ie)
	b.Enable(ir, ie)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := legal.Check(s, c, legal.Options{})
	if res.Legal() {
		t.Fatal("broken simultaneity must be illegal")
	}
}

func TestExprEvalAndErrors(t *testing.T) {
	vars := env{"x": 4}
	if got := lang.VarRef("x").Eval(vars); got != 4 {
		t.Errorf("eval = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("undefined variable should panic")
		}
	}()
	lang.VarRef("ghost").Eval(vars)
}

func TestExternalSharedElement(t *testing.T) {
	// Writer assigns an external cell; a message to the reader orders the
	// subsequent read after the write.
	prog := &Program{Processes: []Process{
		{Name: "W", Body: []Stmt{
			Op{Element: "shared", Class: "Assign", Params: map[string]lang.Expr{"newval": lang.IntLit(9)}},
			Send{To: "R", E: lang.IntLit(1)},
		}},
		{Name: "R", Vars: []string{"x"}, Body: []Stmt{
			Recv{From: "W", Var: "x"},
			Op{Element: "shared", Class: "Getval"},
		}},
	}}
	runs, _, err := Explore(prog, ExploreOptions{})
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
		if got, _ := r.Comp.Event(gets[0]).Params().Get("oldval"); got != core.Int(9) {
			t.Errorf("read %v, want 9", got)
		}
	}
}
