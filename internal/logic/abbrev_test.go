package logic

import (
	"testing"

	"gem/internal/core"
	"gem/internal/history"
)

// chainComputation builds a sequential chain A -> B -> C, as the paper's
// sequential code example, with each class at its own element.
func chainComputation(t *testing.T, wire bool) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	a := b.Event("P", "A", core.Params{})
	bb := b.Event("P", "B", core.Params{})
	cc := b.Event("P", "C", core.Params{})
	if wire {
		b.Enable(a, bb)
		b.Enable(bb, cc)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrereqChainHolds(t *testing.T) {
	c := chainComputation(t, true)
	f := PrereqChain(core.Ref("P", "A"), core.Ref("P", "B"), core.Ref("P", "C"))
	if cx := Holds(f, c, CheckOptions{}); cx != nil {
		t.Errorf("wired chain should satisfy A -> B -> C: %v", cx.Error())
	}
}

func TestPrereqRefutesMissingEnabler(t *testing.T) {
	c := chainComputation(t, false) // element order only, no enables
	f := Prereq(core.Ref("P", "A"), core.Ref("P", "B"))
	if cx := Holds(f, c, CheckOptions{}); cx == nil {
		t.Error("element order alone does not satisfy a prerequisite")
	}
}

func TestPrereqRefutesDoubleEnable(t *testing.T) {
	// One Signal enabling two Releases violates "each Signal can enable
	// only one Release" (the paper's Monitor example).
	b := core.NewBuilder()
	sig := b.Event("Cond", "Signal", core.Params{})
	r1 := b.Event("P1", "Release", core.Params{})
	r2 := b.Event("P2", "Release", core.Params{})
	b.Enable(sig, r1)
	b.Enable(sig, r2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := Prereq(core.Ref("", "Signal"), core.Ref("", "Release"))
	if cx := Holds(f, c, CheckOptions{}); cx == nil {
		t.Error("double enablement must violate the prerequisite")
	}
}

func TestPrereqRefutesTwoEnablers(t *testing.T) {
	b := core.NewBuilder()
	s1 := b.Event("C1", "Signal", core.Params{})
	s2 := b.Event("C2", "Signal", core.Params{})
	r := b.Event("P", "Release", core.Params{})
	b.Enable(s1, r)
	b.Enable(s2, r)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := Prereq(core.Ref("", "Signal"), core.Ref("", "Release"))
	if cx := Holds(f, c, CheckOptions{}); cx == nil {
		t.Error("a Release with two Signal enablers must be refuted")
	}
}

func TestNDPrereq(t *testing.T) {
	// CSP-style: an End event enabled by exactly one of {Req?, Req!}.
	build := func(both bool) *core.Computation {
		b := core.NewBuilder()
		in := b.Event("In", "Req", core.Params{})
		out := b.Event("Out", "Req", core.Params{})
		end := b.Event("In", "End", core.Params{})
		b.Enable(in, end)
		if both {
			b.Enable(out, end)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	set := []core.ClassRef{core.Ref("In", "Req"), core.Ref("Out", "Req")}
	f := NDPrereq(set, core.Ref("In", "End"))
	if cx := Holds(f, build(false), CheckOptions{}); cx != nil {
		t.Errorf("single nondeterministic enabler should hold: %v", cx.Error())
	}
	if cx := Holds(f, build(true), CheckOptions{}); cx == nil {
		t.Error("two enablers from the set must be refuted")
	}
}

func TestForkAndJoin(t *testing.T) {
	// Fork: A enables B and C. Join: B and C enable D.
	b := core.NewBuilder()
	a := b.Event("P", "A", core.Params{})
	bb := b.Event("Q", "B", core.Params{})
	cc := b.Event("R", "C", core.Params{})
	d := b.Event("S", "D", core.Params{})
	b.Enable(a, bb)
	b.Enable(a, cc)
	b.Enable(bb, d)
	b.Enable(cc, d)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fork := Fork(core.Ref("P", "A"), []core.ClassRef{core.Ref("Q", "B"), core.Ref("R", "C")})
	if cx := Holds(fork, c, CheckOptions{}); cx != nil {
		t.Errorf("fork should hold: %v", cx.Error())
	}
	join := Join([]core.ClassRef{core.Ref("Q", "B"), core.Ref("R", "C")}, core.Ref("S", "D"))
	if cx := Holds(join, c, CheckOptions{}); cx != nil {
		t.Errorf("join should hold: %v", cx.Error())
	}
	// A fork missing one branch fails.
	badFork := Fork(core.Ref("P", "A"), []core.ClassRef{core.Ref("Q", "B"), core.Ref("S", "D")})
	if cx := Holds(badFork, c, CheckOptions{}); cx == nil {
		t.Error("fork to D must fail: A does not enable D")
	}
}

func TestUnionQuantifierDedup(t *testing.T) {
	// Overlapping refs must not double-count an event.
	b := core.NewBuilder()
	x := b.Event("X", "E", core.Params{})
	y := b.Event("Y", "F", core.Params{})
	b.Enable(x, y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Refs "X.E" and ".E" both match event x.
	f := ExistsUniqueIn{
		Var:  "e",
		Refs: []core.ClassRef{core.Ref("X", "E"), core.Ref("", "E")},
		Body: Enables{X: "e", Y: "tgt"},
	}
	env := NewEnv(mustFull(t, c)).bind("tgt", y)
	if !f.Eval(env) {
		t.Error("overlapping class refs must be deduplicated")
	}
}

func TestAbbrevStrings(t *testing.T) {
	f := NDPrereq([]core.ClassRef{core.Ref("", "A"), core.Ref("", "B")}, core.Ref("", "C"))
	if s := f.String(); s == "" {
		t.Error("NDPrereq should render")
	}
	g := ForAllIn{Var: "x", Refs: []core.ClassRef{core.Ref("", "A")}, Body: TrueF{}}
	if s := g.String(); s == "" {
		t.Error("ForAllIn should render")
	}
}

func mustFull(t *testing.T, c *core.Computation) history.History {
	t.Helper()
	return history.Full(c)
}
