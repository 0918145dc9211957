package logic_test

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/oracle"
	"gem/internal/thread"
)

// These tests pin the binding stack behind Env: quantifiers bind their
// variable in place (push one slot, overwrite it per domain element, pop
// it on every return path), lookups resolve a name to its innermost
// binder, event and thread variables are separate namespaces, and the
// lattice engine's sibling environments each own their bindings. A
// stack that gets any of these wrong still passes most formulas, so each
// test below is built to make one such mistake change an outcome, and
// the verdicts are the oracle's (internal/oracle), which binds variables
// its own way.

// requireOracleVerdict fails t unless the oracle judges f on c as want.
func requireOracleVerdict(t *testing.T, f logic.Formula, c *core.Computation, want bool) {
	t.Helper()
	holds, err := oracle.Holds(f, c)
	if err != nil {
		t.Fatal(err)
	}
	if holds != want {
		t.Fatalf("oracle: %s holds = %v, production %v", f, holds, want)
	}
}

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
	someX := logic.Exists{Var: "x", Ref: core.Ref("", "X"), Body: logic.Occurred{Var: "x"}}
	f := logic.Or{
		logic.And{someX, logic.Not{F: someX}},
		logic.ForAll{Var: "y", Ref: core.Ref("", "Y"), Body: logic.Box{F: logic.Implies{If: logic.Occurred{Var: "y"}, Then: someX}}},
	}
	cx, decided := logic.LatticeDecide(f, c)
	if !decided {
		t.Fatalf("lattice engine left %s undecided", f)
	}
	requireOracleVerdict(t, f, c, cx == nil)
	if !logic.RequireLatticeWitness(t, cx) {
		t.Fatal("lattice counterexample is not a valid witness")
	}
	cx = logic.Holds(f, c, logic.CheckOptions{})
	if err := cx.Verify(); err != nil {
		t.Fatal(err)
	}
	requireOracleVerdict(t, f, c, cx == nil)
}

// TestShadowedVariableResolvesInnermost: inside ∃x:B the name x is the B
// event; once that quantifier returns, x is the outer A event again.
// Checked at the full history and wrapped in □, so the temporal engine
// runs too.
func TestShadowedVariableResolvesInnermost(t *testing.T) {
	b := core.NewBuilder()
	b.Event("P", "A", core.Params{})
	b.Event("Q", "B", core.Params{})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aRef, bRef := core.Ref("", "A"), core.Ref("", "B")
	f := logic.ForAll{Var: "x", Ref: aRef, Body: logic.And{
		logic.Exists{Var: "x", Ref: bRef, Body: logic.InClass{Var: "x", Ref: bRef}},
		logic.InClass{Var: "x", Ref: aRef},
	}}
	requireOracleVerdict(t, f, c, f.Eval(logic.NewEnv(history.Full(c))))
	requireOracleVerdict(t, logic.Box{F: f}, c, logic.Holds(logic.Box{F: f}, c, logic.CheckOptions{}) == nil)

	env := logic.NewEnv(history.Full(c)).BindEvent("x", c.EventsOf(aRef)[0]).BindEvent("x", c.EventsOf(bRef)[0])
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
	env := logic.NewEnv(history.Full(c))
	req := core.Ref("X", "Req")
	on := logic.OnThread{X: "t", T: "t"}
	for _, f := range []logic.Formula{
		logic.ForAllThread{Var: "t", Type: "pi", Body: logic.Exists{Var: "t", Ref: req, Body: on}},
		logic.ForAll{Var: "t", Ref: req, Body: logic.ExistsThread{Var: "t", Type: "pi", Body: on}},
	} {
		requireOracleVerdict(t, f, c, f.Eval(env))
	}
	if got, want := env.BindEvent("t", r1).BindThread("t", "pi#2").Bindings(), "t=X.Req^0, t=pi#2"; got != want {
		t.Errorf("Bindings = %q, want %q", got, want)
	}
}

// TestEarlyReturnPopsBinding: a quantifier that stops early — ∃ at its
// first true body, ∀ at its first false one, a counting quantifier at
// its second match — must still pop its binding, so the variable is
// unbound again for the formula's next conjunct or disjunct. The oracle
// refuses each formula for the same unbound variable.
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
	useY := logic.Occurred{Var: "y"}
	useT := logic.Exists{Var: "e", Ref: ref, Body: logic.OnThread{X: "e", T: "t"}}
	for _, tt := range []struct {
		f       logic.Formula
		unbound string
	}{
		{logic.And{logic.Exists{Var: "y", Ref: ref, Body: logic.TrueF{}}, useY}, "event"},
		{logic.Or{logic.ForAll{Var: "y", Ref: ref, Body: logic.FalseF{}}, useY}, "event"},
		{logic.Or{logic.ExistsUnique{Var: "y", Ref: ref, Body: logic.TrueF{}}, useY}, "event"},
		{logic.Or{logic.AtMostOne{Var: "y", Ref: ref, Body: logic.TrueF{}}, useY}, "event"},
		{logic.Or{logic.ForAllIn{Var: "y", Refs: refs, Body: logic.FalseF{}}, useY}, "event"},
		{logic.Or{logic.ExistsUniqueIn{Var: "y", Refs: refs, Body: logic.TrueF{}}, useY}, "event"},
		{logic.Or{logic.ForAllThread{Var: "t", Type: "pi", Body: logic.FalseF{}}, useT}, "thread"},
		{logic.And{logic.ExistsThread{Var: "t", Type: "pi", Body: logic.TrueF{}}, useT}, "thread"},
	} {
		t.Run(tt.f.String(), func(t *testing.T) {
			if _, err := oracle.Holds(tt.f, c); err == nil || !strings.Contains(err.Error(), "unbound "+tt.unbound+" variable") {
				t.Errorf("oracle: err = %v, want an unbound %s variable", err, tt.unbound)
			}
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "unbound "+tt.unbound+" variable") {
					t.Errorf("got panic %v, want an unbound %s variable", r, tt.unbound)
				}
			}()
			tt.f.Eval(logic.NewEnv(history.Full(c)))
		})
	}
}
