package logic

import (
	"context"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/thread"
)

// These tests pin the binding stack behind Env: quantifiers bind their
// variable in place (push one slot, overwrite it per domain element, pop
// it on every return path), lookups resolve a name to its innermost
// binder, event and thread variables are separate namespaces, and the
// lattice engine's sibling environments each own their bindings. A
// stack that gets any of these wrong still passes most formulas, so each
// test below is built to make one such mistake change a verdict.

// TestSiblingEnvironmentsOwnTheirBindings: the lattice engine keeps one
// child environment per binding of ∀y alive at once. Y1 is unconstrained
// while Y2 needs X, so □(occurred(y) → ∃x:X occurred(x)) fails for y=Y1
// only. The immediate first disjunct is evaluated pointwise on the root
// environment first, pushing and popping a binding; children that
// appended into the root's spare capacity would share one slot, all read
// Y2, and pass the formula.
func TestSiblingEnvironmentsOwnTheirBindings(t *testing.T) {
	b := core.NewBuilder()
	b.Event("B", "Y", core.Params{})
	x := b.Event("A", "X", core.Params{})
	y2 := b.Event("C", "Y", core.Params{})
	b.Enable(x, y2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	someX := Exists{Var: "x", Ref: core.Ref("", "X"), Body: Occurred{Var: "x"}}
	f := Or{
		And{someX, Not{F: someX}},
		ForAll{Var: "y", Ref: core.Ref("", "Y"), Body: Box{F: Implies{If: Occurred{Var: "y"}, Then: someX}}},
	}
	cx, decided := latticeDecide(context.Background(), f, c)
	switch {
	case !decided:
		t.Fatalf("lattice engine left %s undecided", f)
	case cx == nil:
		t.Fatalf("lattice engine passed %s; y=Y1 falsifies it", f)
	case !requireLatticeWitness(t, cx):
		t.Fatal("lattice counterexample is not a valid witness")
	}
	if cx := Holds(f, c, CheckOptions{Engine: EngineSeq}); cx == nil {
		t.Fatalf("sequence engine passed %s; y=Y1 falsifies it", f)
	} else if err := cx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestShadowedVariableResolvesInnermost: inside ∃x:B the name x is the B
// event; once that quantifier returns, x is the outer A event again.
// Checked under every engine, wrapped in □ so the temporal engines run.
func TestShadowedVariableResolvesInnermost(t *testing.T) {
	b := core.NewBuilder()
	b.Event("P", "A", core.Params{})
	b.Event("Q", "B", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aRef, bRef := core.Ref("", "A"), core.Ref("", "B")
	f := ForAll{Var: "x", Ref: aRef, Body: And{
		Exists{Var: "x", Ref: bRef, Body: InClass{Var: "x", Ref: bRef}},
		InClass{Var: "x", Ref: aRef},
	}}
	if !f.Eval(NewEnv(history.Full(c))) {
		t.Errorf("%s should hold", f)
	}
	for _, engine := range []Engine{EngineAuto, EngineLattice, EngineSeq} {
		if cx := Holds(Box{F: f}, c, CheckOptions{Engine: engine}); cx != nil {
			t.Errorf("engine %s: %v", engine, cx.Error())
		}
	}

	env := NewEnv(history.Full(c)).bind("x", c.EventsOf(aRef)[0]).bind("x", c.EventsOf(bRef)[0])
	if got := env.Bindings(); got != "x=Q.B^0" {
		t.Errorf("Bindings = %q, want only the innermost x", got)
	}
}

// TestEventAndThreadNamespaces: an event variable and a thread variable
// may share a name, under either nesting.
func TestEventAndThreadNamespaces(t *testing.T) {
	b := core.NewBuilder()
	r1 := b.Event("X", "Req", core.Params{})
	r2 := b.Event("X", "Req", core.Params{})
	b.Thread(r1, thread.ID("pi", 1))
	b.Thread(r2, thread.ID("pi", 2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(history.Full(c))
	req := core.Ref("X", "Req")
	on := OnThread{X: "t", T: "t"}
	for _, f := range []Formula{
		ForAllThread{Var: "t", Type: "pi", Body: Exists{Var: "t", Ref: req, Body: on}},
		ForAll{Var: "t", Ref: req, Body: ExistsThread{Var: "t", Type: "pi", Body: on}},
	} {
		if !f.Eval(env) {
			t.Errorf("%s should hold", f)
		}
	}
	if got, want := env.bind("t", r1).bindThread("t", "pi#2").Bindings(), "t=X.Req^0, t=pi#2"; got != want {
		t.Errorf("Bindings = %q, want %q", got, want)
	}
}

// TestEarlyReturnPopsBinding: a quantifier that stops early — ∃ at its
// first true body, ∀ at its first false one, a counting quantifier at
// its second match — must still pop its binding, so the variable is
// unbound again for the formula's next conjunct or disjunct.
func TestEarlyReturnPopsBinding(t *testing.T) {
	b := core.NewBuilder()
	e1 := b.Event("B", "E", core.Params{})
	e2 := b.Event("B", "E", core.Params{})
	b.Thread(e1, thread.ID("pi", 1))
	b.Thread(e2, thread.ID("pi", 2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.Ref("", "E")
	refs := []core.ClassRef{ref}
	useY := Occurred{Var: "y"}
	useT := Exists{Var: "e", Ref: ref, Body: OnThread{X: "e", T: "t"}}
	for _, tt := range []struct {
		f       Formula
		unbound string
	}{
		{And{Exists{Var: "y", Ref: ref, Body: TrueF{}}, useY}, "event"},
		{Or{ForAll{Var: "y", Ref: ref, Body: FalseF{}}, useY}, "event"},
		{Or{ExistsUnique{Var: "y", Ref: ref, Body: TrueF{}}, useY}, "event"},
		{Or{AtMostOne{Var: "y", Ref: ref, Body: TrueF{}}, useY}, "event"},
		{Or{ForAllIn{Var: "y", Refs: refs, Body: FalseF{}}, useY}, "event"},
		{Or{ExistsUniqueIn{Var: "y", Refs: refs, Body: TrueF{}}, useY}, "event"},
		{Or{ForAllThread{Var: "t", Type: "pi", Body: FalseF{}}, useT}, "thread"},
		{And{ExistsThread{Var: "t", Type: "pi", Body: TrueF{}}, useT}, "thread"},
	} {
		t.Run(tt.f.String(), func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "unbound "+tt.unbound+" variable") {
					t.Errorf("got panic %v, want an unbound %s variable", r, tt.unbound)
				}
			}()
			tt.f.Eval(NewEnv(history.Full(c)))
		})
	}
}
